//! The worker side of the protocol: a blocking frame loop that
//! executes one assignment at a time.
//!
//! The `dtn-fleet-worker` binary calls [`worker_main`] over its
//! stdin/stdout, and every cell runs through
//! [`dtn_sim::sweep::run_job`] — the in-process runner's own job
//! executor — so a worker's [`dtn_sim::sweep::CellRun`] is
//! bit-identical to an in-process one.

use crate::protocol::{read_frame, write_frame, CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use dtn_sim::config::ScenarioConfig;
use dtn_sim::sweep::{run_job, CheckpointSink, ScheduleCache};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A deterministic fault hook for tests and CI: when the worker is
/// assigned `config_hash` and `marker` does not exist yet, it creates
/// the marker and misbehaves *once* (subsequent assignments of the same
/// cell run normally — including after a respawn, since the marker is
/// on disk).
///
/// `config_hash` may be the wildcard `*`, matching any cell; because
/// the marker latch is a shared file, a fleet whose workers all carry a
/// wildcard hook still misbehaves exactly once in total. CI uses this
/// to kill one worker without knowing cell hashes in advance.
#[derive(Debug, Clone)]
pub struct FaultHook {
    /// The cell to sabotage (`*` = any cell).
    pub config_hash: String,
    /// First-trigger latch file.
    pub marker: PathBuf,
}

impl FaultHook {
    /// Parses the `HASH:MARKER_PATH` CLI form.
    pub fn parse(s: &str) -> Option<FaultHook> {
        let (hash, marker) = s.split_once(':')?;
        if hash.is_empty() || marker.is_empty() {
            return None;
        }
        Some(FaultHook {
            config_hash: hash.to_string(),
            marker: PathBuf::from(marker),
        })
    }

    /// True (and latches the marker) on the first sighting of `hash`.
    fn triggers(&self, hash: &str) -> bool {
        let matches = self.config_hash == "*" || hash == self.config_hash;
        if !matches || self.marker.exists() {
            return false;
        }
        // Latch *before* misbehaving so a killed worker doesn't retrigger.
        std::fs::File::create(&self.marker).is_ok()
    }
}

/// Configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Heartbeat period, seconds (0 disables the heartbeat thread).
    pub heartbeat_secs: f64,
    /// Private shard checkpoint this worker streams finished cells to
    /// (crash insurance merged by the coordinator on resume).
    pub shard: Option<PathBuf>,
    /// Test hook: exit with code 17 instead of running the cell.
    pub fail_once: Option<FaultHook>,
    /// Test hook: hang (sleep ~1h) instead of running the cell.
    pub hang_once: Option<FaultHook>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_secs: 0.5,
            shard: None,
            fail_once: None,
            hang_once: None,
        }
    }
}

/// Executes one assignment exactly as the in-process sweep runner
/// would — through [`run_job`], sharing contacts through `schedules`,
/// so panic isolation and the [`dtn_sim::sweep::CellRun`] record are
/// bit-identical by construction.
pub fn run_assignment(
    index: usize,
    config_hash: &str,
    config: &str,
    validate: bool,
    schedules: &ScheduleCache,
) -> WorkerMsg {
    let outcome = serde_json::from_str::<ScenarioConfig>(config)
        .map_err(|e| format!("config does not parse: {e}"))
        .and_then(|cfg| run_job(index, &cfg, config_hash, validate, 1, schedules));
    match outcome {
        Ok(run) => WorkerMsg::Done { run },
        Err(panic) => WorkerMsg::Failed {
            index,
            config_hash: config_hash.to_string(),
            panic,
        },
    }
}

/// The worker main loop: `Hello`, then heartbeats from a side thread
/// while assignment frames stream in on `input` and reply frames stream
/// out on `output`. The session ends at EOF or the first framing error
/// (a stream that loses sync cannot be resynchronised); a well-framed
/// message of an unknown kind is skipped. Returns the process exit
/// code: 0 on clean shutdown/EOF, 1 when the coordinator became
/// unreachable, 17 on the `fail_once` test hook.
///
/// Each `Assign` carries its cell's config, so the loop keeps nothing
/// between assignments except the contact schedules it has recorded.
///
/// Output is a mutex-guarded writer because the heartbeat thread and
/// the assignment loop interleave frames; each frame is written and
/// flushed atomically under the lock, so frames never tear.
pub fn worker_main(
    cfg: WorkerConfig,
    mut input: impl BufRead,
    output: impl Write + Send + 'static,
) -> i32 {
    let out = Arc::new(Mutex::new(output));
    let emit = |msg: &WorkerMsg| -> bool {
        let mut guard = out.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *guard, &msg.to_line()).is_ok()
    };

    if !emit(&WorkerMsg::Hello {
        pid: std::process::id() as u64,
        protocol: PROTOCOL_VERSION,
    }) {
        return 1; // coordinator already gone
    }

    // Dropping `stop` wakes the heartbeat thread at once, so a worker
    // told to shut down exits without waiting out a heartbeat period.
    let (stop, stopped) = mpsc::channel::<()>();
    let heartbeat = if cfg.heartbeat_secs > 0.0 {
        let out = Arc::clone(&out);
        let period = Duration::from_secs_f64(cfg.heartbeat_secs);
        Some(std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                let mut guard = out.lock().unwrap_or_else(PoisonError::into_inner);
                if write_frame(&mut *guard, &WorkerMsg::Heartbeat.to_line()).is_err() {
                    break; // coordinator gone; the main loop will see EOF too
                }
            }
        }))
    } else {
        None
    };

    // Created (truncating) at the first finished cell, not at start-up:
    // a truncation must never precede the coordinator's merge of what a
    // previous run left in the file, and the first `Assign` only comes
    // after that merge. A shard that cannot be written only costs the
    // crash insurance.
    let mut shard: Option<CheckpointSink> = None;

    // The contact schedules of the keys this worker has run, kept for
    // the process's lifetime: a sweep has one key per seed.
    let schedules = ScheduleCache::default();

    let mut code = 0;
    while let Ok(Some(frame)) = read_frame(&mut input) {
        // A well-framed unknown message is skipped, not fatal: a newer
        // coordinator may speak additional message kinds.
        let Ok(msg) = serde_json::from_str::<CoordinatorMsg>(&frame) else {
            continue;
        };
        match msg {
            CoordinatorMsg::Assign {
                index,
                config_hash,
                config,
                validate,
            } => {
                if cfg
                    .fail_once
                    .as_ref()
                    .is_some_and(|h| h.triggers(&config_hash))
                {
                    code = 17; // simulated crash mid-cell
                    break;
                }
                if cfg
                    .hang_once
                    .as_ref()
                    .is_some_and(|h| h.triggers(&config_hash))
                {
                    // Simulated wedge: heartbeats keep flowing (the side
                    // thread is alive), so only the per-cell timeout can
                    // catch this — exactly what it exists for.
                    std::thread::sleep(Duration::from_secs(3600));
                    break;
                }
                let reply = run_assignment(index, &config_hash, &config, validate, &schedules);
                if let (WorkerMsg::Done { run }, Some(path)) = (&reply, &cfg.shard) {
                    shard
                        .get_or_insert_with(|| CheckpointSink::create(path))
                        .append(run);
                }
                if !emit(&reply) {
                    code = 1;
                    break;
                }
            }
            CoordinatorMsg::Shutdown => break,
        }
    }

    drop(stop);
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::config::presets;
    use dtn_sim::sweep::execute_job;
    use dtn_telemetry::hash_config_json;

    fn smoke_assignment() -> (String, String) {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 200.0;
        cfg.n_nodes = 10;
        let config = serde_json::to_string(&cfg).expect("config serialises");
        let hash = hash_config_json(&config);
        (config, hash)
    }

    /// The in-process run records the contacts, the assignment replays
    /// them: the records still agree.
    #[test]
    fn run_assignment_matches_in_process_execution() {
        let (config, hash) = smoke_assignment();
        let cfg: ScenarioConfig = serde_json::from_str(&config).expect("parse");
        let schedules = ScheduleCache::default();
        let (metrics, fingerprint, violations) = execute_job(&cfg, false, 1, &schedules);
        assert_eq!(schedules.len(), 1);
        match run_assignment(4, &hash, &config, false, &schedules) {
            WorkerMsg::Done { run } => {
                assert_eq!(run.index, 4);
                assert_eq!(run.config_hash, hash);
                assert_eq!(run.seed, cfg.seed);
                assert_eq!(run.metrics, metrics);
                assert_eq!(run.fingerprint, fingerprint);
                assert_eq!(run.violations, violations);
                assert!(run.duration_secs > 0.0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_config_fails_soft() {
        match run_assignment(0, "cafe", "not json", false, &ScheduleCache::default()) {
            WorkerMsg::Failed { panic, .. } => assert!(panic.contains("config does not parse")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn assign(index: usize, config: &str, hash: &str) -> String {
        CoordinatorMsg::Assign {
            index,
            config_hash: hash.to_string(),
            config: config.to_string(),
            validate: false,
        }
        .to_line()
    }

    /// Runs the worker loop over `frames` (heartbeats off) and returns
    /// its exit code and every frame it wrote, parsed.
    fn run_worker(cfg: WorkerConfig, frames: &[String]) -> (i32, Vec<WorkerMsg>) {
        let mut input = Vec::new();
        for frame in frames {
            write_frame(&mut input, frame).unwrap();
        }
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let code = worker_main(
            WorkerConfig {
                heartbeat_secs: 0.0,
                ..cfg
            },
            &input[..],
            SharedSink(Arc::clone(&out)),
        );
        let bytes = out.lock().unwrap().clone();
        let mut r = std::io::Cursor::new(bytes);
        let mut msgs = Vec::new();
        while let Some(frame) = read_frame(&mut r).expect("well-framed output") {
            msgs.push(serde_json::from_str(&frame).expect("worker frame parses"));
        }
        (code, msgs)
    }

    #[test]
    fn worker_loop_answers_assignments_and_skips_unknown_messages() {
        let (config, hash) = smoke_assignment();
        let (code, msgs) = run_worker(
            WorkerConfig::default(),
            &[
                "{\"Evolved\":{\"x\":1}}".into(), // well-framed, unknown: skipped
                assign(0, &config, &hash),
                CoordinatorMsg::Shutdown.to_line(),
            ],
        );
        assert_eq!(code, 0);
        assert!(
            matches!(
                &msgs[0],
                WorkerMsg::Hello {
                    protocol: PROTOCOL_VERSION,
                    ..
                }
            ),
            "Hello carries the version"
        );
        assert!(matches!(&msgs[1], WorkerMsg::Done { run } if run.config_hash == hash));
        assert_eq!(msgs.len(), 2);
    }

    #[test]
    fn a_long_heartbeat_period_does_not_delay_exit() {
        let mut input = Vec::new();
        write_frame(&mut input, &CoordinatorMsg::Shutdown.to_line()).unwrap();
        let started = std::time::Instant::now();
        let code = worker_main(
            WorkerConfig {
                heartbeat_secs: 30.0,
                ..WorkerConfig::default()
            },
            &input[..],
            SharedSink(Arc::new(Mutex::new(Vec::new()))),
        );
        assert_eq!(code, 0);
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "worker lingered {waited:?} after its input ended"
        );
    }

    #[test]
    fn framing_error_ends_the_session() {
        let (config, hash) = smoke_assignment();
        let mut input = Vec::new();
        input.extend_from_slice(b"not a frame\n");
        write_frame(&mut input, &assign(0, &config, &hash)).unwrap();
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let code = worker_main(
            WorkerConfig {
                heartbeat_secs: 0.0,
                ..WorkerConfig::default()
            },
            &input[..],
            SharedSink(Arc::clone(&out)),
        );
        assert_eq!(code, 0, "a broken stream ends the session like EOF");
        let bytes = out.lock().unwrap().clone();
        let mut r = std::io::Cursor::new(bytes);
        let hello = read_frame(&mut r).unwrap().expect("Hello");
        assert!(hello.contains("Hello"));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            None,
            "nothing ran after the garbage"
        );
    }

    #[test]
    fn finished_cells_stream_to_the_shard_checkpoint() {
        let (config, hash) = smoke_assignment();
        let shard =
            std::env::temp_dir().join(format!("dtn-fleet-shard-{}.jsonl", std::process::id()));
        std::fs::write(&shard, "stale line from a consumed shard\n").unwrap();
        let (code, msgs) = run_worker(
            WorkerConfig {
                shard: Some(shard.clone()),
                ..WorkerConfig::default()
            },
            &[assign(1, &config, &hash)],
        );
        assert_eq!(code, 0);
        let WorkerMsg::Done { run } = &msgs[1] else {
            panic!("expected Done, got {:?}", msgs[1]);
        };
        let restored = dtn_sim::sweep::load_checkpoint(&shard);
        assert_eq!(
            restored.len(),
            1,
            "truncated at the first finished cell, then one line"
        );
        assert_eq!(restored.get(&hash), Some(run));
        let _ = std::fs::remove_file(&shard);
    }

    #[test]
    fn fault_hook_latches_once() {
        let marker =
            std::env::temp_dir().join(format!("dtn-fleet-hook-{}.marker", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let hook = FaultHook {
            config_hash: "aa".into(),
            marker: marker.clone(),
        };
        assert!(!hook.triggers("bb"), "other cells unaffected");
        assert!(hook.triggers("aa"), "first sighting trips");
        assert!(!hook.triggers("aa"), "latched after that");
        let wildcard = FaultHook {
            config_hash: "*".into(),
            marker: marker.clone(),
        };
        assert!(!wildcard.triggers("cc"), "wildcard shares the latch");
        let _ = std::fs::remove_file(&marker);
        assert!(wildcard.triggers("cc"), "wildcard matches any cell");
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn fault_hook_parses_cli_form() {
        let hook = FaultHook::parse("deadbeef:/tmp/m.marker").expect("parses");
        assert_eq!(hook.config_hash, "deadbeef");
        assert_eq!(hook.marker, PathBuf::from("/tmp/m.marker"));
        assert!(FaultHook::parse("nocolon").is_none());
        assert!(FaultHook::parse(":/tmp/x").is_none());
    }
}
