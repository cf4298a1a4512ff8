//! The TCP transport: workers connect over the network instead of
//! being forked, carrying the same length-prefixed frames as the
//! subprocess backend (see [`crate::protocol::write_frame`]).
//!
//! Roles are inverted relative to the subprocess backend — the
//! coordinator cannot *create* remote workers, it can only *accept*
//! them. [`TcpTransport`] therefore runs a listener thread that
//! authenticates each incoming connection (first frame must be a
//! versioned [`WorkerMsg::Hello`] with the matching token; anything
//! else is answered with [`CoordinatorMsg::Reject`] and dropped) and
//! parks it in a ready queue. [`Transport::spawn`] then *adopts* a
//! queued connection: the initial worker slots wait up to the accept
//! timeout for workers to dial in, while respawn-path spawns never
//! block (a dead slot stays dead until a new connection arrives, at
//! which point the coordinator revives it via
//! [`Transport::waiting_workers`]).
//!
//! Failure mapping is identical to the subprocess backend: a dropped
//! or timed-out socket surfaces as [`Envelope::Gone`] → worker loss →
//! bounded cell retry; a failed `send` surfaces as [`FleetError`] →
//! worker loss. A dropped socket can therefore delay a cell but never
//! lose it.

use crate::protocol::{read_frame, write_frame, CoordinatorMsg, WorkerMsg};
use crate::transport::{spawn_pump, Envelope, FleetError, Transport, WorkerHandle};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An authenticated connection waiting to be adopted by a worker slot.
/// Keeps the handshake `BufReader` — it may already hold buffered
/// frames (e.g. an eager heartbeat) that a fresh reader would lose.
struct AuthedConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    hello: WorkerMsg,
    peer: String,
}

struct HandshakePolicy {
    token: Mutex<Option<String>>,
    io_timeout: Mutex<Duration>,
}

impl HandshakePolicy {
    fn token(&self) -> Option<String> {
        self.token.lock().expect("policy poisoned").clone()
    }
    fn io_timeout(&self) -> Duration {
        *self.io_timeout.lock().expect("policy poisoned")
    }
}

#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<AuthedConn>>,
    arrived: Condvar,
}

impl ReadyQueue {
    fn push(&self, conn: AuthedConn) {
        self.queue
            .lock()
            .expect("ready queue poisoned")
            .push_back(conn);
        self.arrived.notify_one();
    }

    fn pop_within(&self, wait: Duration) -> Option<AuthedConn> {
        let guard = self.queue.lock().expect("ready queue poisoned");
        let (mut guard, _) = self
            .arrived
            .wait_timeout_while(guard, wait, |q| q.is_empty())
            .expect("ready queue poisoned");
        guard.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.lock().expect("ready queue poisoned").len()
    }
}

/// A [`Transport`] that accepts `dtn-fleet-worker --connect` peers on
/// a listening socket.
///
/// ```no_run
/// use dtn_fleet::{run_fleet, FleetOptions, TcpTransport};
/// # fn jobs() -> Vec<dtn_sim::sweep::CellJob> { Vec::new() }
/// let transport = TcpTransport::bind("127.0.0.1:0")?; // 0 = any port
/// println!("workers: dtn-fleet-worker --connect {}", transport.local_addr());
/// let opts = FleetOptions { workers: 2, ..FleetOptions::default() };
/// transport.expect_workers(opts.workers);
/// let run = run_fleet(&jobs(), &transport, &opts)?;
/// # Ok::<(), dtn_fleet::FleetError>(())
/// ```
pub struct TcpTransport {
    addr: SocketAddr,
    /// Shared with the listener thread (spawned at bind time, before
    /// the builder methods run) so `with_token`/`with_timeouts` apply
    /// to handshakes too.
    policy: Arc<HandshakePolicy>,
    accept_timeout: Duration,
    /// How many further `spawn` calls may block a full accept-timeout
    /// waiting for a worker to dial in (the initial slots). Respawns
    /// must not stall the supervision loop, so once this hits zero a
    /// spawn only adopts an already-queued connection.
    blocking_accepts: AtomicUsize,
    ready: Arc<ReadyQueue>,
    stop: Arc<AtomicBool>,
    rejected: Arc<AtomicU64>,
}

impl TcpTransport {
    /// Binds the listener and starts the accept/handshake thread.
    /// `addr` is a `HOST:PORT` string; port 0 picks a free port (read
    /// it back via [`TcpTransport::local_addr`]).
    pub fn bind(addr: &str) -> Result<TcpTransport, FleetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| FleetError::new(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| FleetError::new(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| FleetError::new(format!("set_nonblocking: {e}")))?;

        let transport = TcpTransport {
            addr: local,
            policy: Arc::new(HandshakePolicy {
                token: Mutex::new(None),
                io_timeout: Mutex::new(Duration::from_secs(30)),
            }),
            accept_timeout: Duration::from_secs(30),
            blocking_accepts: AtomicUsize::new(0),
            ready: Arc::new(ReadyQueue::default()),
            stop: Arc::new(AtomicBool::new(false)),
            rejected: Arc::new(AtomicU64::new(0)),
        };
        transport.start_listener(listener);
        Ok(transport)
    }

    /// Sets the shared-secret token every worker `Hello` must carry.
    pub fn with_token(self, token: Option<String>) -> TcpTransport {
        *self.policy.token.lock().expect("policy poisoned") = token;
        self
    }

    /// Sets how long an *initial* spawn waits for a worker to connect
    /// and how long socket reads/writes may stall before the peer is
    /// declared lost.
    pub fn with_timeouts(mut self, accept_secs: f64, io_secs: f64) -> TcpTransport {
        self.accept_timeout = Duration::from_secs_f64(accept_secs.max(0.0));
        *self.policy.io_timeout.lock().expect("policy poisoned") =
            Duration::from_secs_f64(io_secs.max(0.1));
        self
    }

    /// Declares how many upcoming `spawn` calls are initial worker
    /// slots allowed to block for the accept timeout. Call with the
    /// fleet's worker count right before `run_fleet`; respawns beyond
    /// this budget never block.
    pub fn expect_workers(&self, n: usize) {
        self.blocking_accepts.store(n, Ordering::SeqCst);
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handshakes refused so far (version or token mismatch).
    pub fn rejected_handshakes(&self) -> u64 {
        self.rejected.load(Ordering::SeqCst)
    }

    fn start_listener(&self, listener: TcpListener) {
        let ready = Arc::clone(&self.ready);
        let stop = Arc::clone(&self.stop);
        let rejected = Arc::clone(&self.rejected);
        let policy = Arc::clone(&self.policy);
        std::thread::Builder::new()
            .name(format!("dtn-fleet-tcp-accept-{}", self.addr.port()))
            .spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, peer)) => {
                        let ready = Arc::clone(&ready);
                        let rejected = Arc::clone(&rejected);
                        let policy = Arc::clone(&policy);
                        // Handshake on a short-lived thread so one
                        // dawdling client cannot block further accepts.
                        let _ = std::thread::Builder::new()
                            .name(format!("dtn-fleet-tcp-hs-{peer}"))
                            .spawn(move || handshake(stream, peer, &policy, &ready, &rejected));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            })
            .expect("spawn tcp accept thread");
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Parked connections get a clean close instead of a dangling
        // socket; their workers see EOF and exit/reconnect.
        while let Some(conn) = self.ready.pop_within(Duration::ZERO) {
            let _ = conn.writer.shutdown(Shutdown::Both);
        }
    }
}

/// Runs the authentication handshake on a fresh connection: first
/// frame must be a `Hello` with the right protocol version and token.
fn handshake(
    stream: TcpStream,
    peer: SocketAddr,
    policy: &HandshakePolicy,
    ready: &ReadyQueue,
    rejected: &AtomicU64,
) {
    let token = policy.token();
    let io_timeout = policy.io_timeout();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    let refuse = |mut writer: TcpStream, reason: String| {
        rejected.fetch_add(1, Ordering::SeqCst);
        eprintln!("dtn-fleet: rejecting {peer}: {reason}");
        let reject = CoordinatorMsg::Reject { reason };
        let _ = write_frame(&mut writer, &reject.to_line());
        let _ = writer.shutdown(Shutdown::Both);
    };

    let line = match read_frame(&mut reader) {
        Ok(Some(line)) => line,
        Ok(None) | Err(_) => {
            return refuse(writer, "no Hello frame before timeout/EOF".into());
        }
    };
    let hello = match serde_json::from_str::<WorkerMsg>(&line) {
        Ok(msg @ WorkerMsg::Hello { .. }) => msg,
        Ok(other) => {
            return refuse(writer, format!("first frame must be Hello, got {other:?}"));
        }
        Err(e) => return refuse(writer, format!("unparseable Hello frame: {e}")),
    };
    let WorkerMsg::Hello {
        protocol,
        token: offered,
        ..
    } = &hello
    else {
        unreachable!("matched Hello above");
    };
    if *protocol != crate::protocol::PROTOCOL_VERSION {
        return refuse(
            writer,
            format!(
                "protocol version mismatch: worker speaks v{protocol}, coordinator v{}",
                crate::protocol::PROTOCOL_VERSION
            ),
        );
    }
    if token != *offered {
        // Never echo the expected token to an unauthenticated peer.
        return refuse(writer, "auth token mismatch".into());
    }
    ready.push(AuthedConn {
        reader,
        writer,
        hello,
        peer: peer.to_string(),
    });
}

impl Transport for TcpTransport {
    fn spawn(
        &self,
        uid: u64,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<Box<dyn WorkerHandle>, FleetError> {
        let may_block = self
            .blocking_accepts
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        let wait = if may_block {
            self.accept_timeout
        } else {
            // Respawn path: adopt a queued connection if one is already
            // waiting, but never stall the supervision loop.
            Duration::from_millis(10)
        };
        let Some(conn) = self.ready.pop_within(wait) else {
            return Err(FleetError::new(format!(
                "no worker connected to {} within {:.1}s",
                self.addr,
                wait.as_secs_f64()
            )));
        };
        let AuthedConn {
            reader,
            writer,
            hello,
            peer,
        } = conn;
        let pid = match &hello {
            WorkerMsg::Hello { pid, .. } => *pid,
            _ => 0,
        };
        // The authenticated Hello was consumed during the handshake;
        // replay it so the coordinator sees the same first message a
        // stdio worker would send.
        if inbox.send((uid, Envelope::Msg(hello))).is_err() {
            return Err(FleetError::new("coordinator inbox closed"));
        }

        // Reader pump: socket frames → coordinator inbox. Any framing
        // violation, read timeout (a live worker heartbeats well inside
        // io_timeout) or EOF means the connection is unusable → Gone →
        // the coordinator retries the in-flight cell elsewhere.
        spawn_pump(format!("dtn-fleet-tcp-pump-{uid}"), uid, reader, inbox)?;

        Ok(Box::new(TcpWorker {
            writer: Some(writer),
            pid,
            peer,
        }))
    }

    fn label(&self) -> &'static str {
        "tcp"
    }

    fn waiting_workers(&self) -> usize {
        self.ready.len()
    }
}

struct TcpWorker {
    writer: Option<TcpStream>,
    pid: u64,
    peer: String,
}

impl WorkerHandle for TcpWorker {
    fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| FleetError::new("worker socket already closed"))?;
        write_frame(writer, &msg.to_line())
            .map_err(|e| FleetError::new(format!("worker socket {}: {e}", self.peer)))
    }

    fn pid(&self) -> u64 {
        self.pid
    }

    fn kill(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = writer.shutdown(Shutdown::Both);
        }
    }
}

/// Spawns `n` local `dtn-fleet-worker --connect` child processes
/// against a loopback [`TcpTransport`] and kills them on drop.
///
/// This is the harness the benches and tests use to exercise the real
/// network path (real sockets, real processes) on one machine; it is
/// *not* how multi-host fleets run — there the operator starts workers
/// on each host (see EXPERIMENTS.md).
pub struct LocalTcpWorkers {
    children: Vec<Child>,
}

impl LocalTcpWorkers {
    /// Launches the children. `checkpoint` (the coordinator's main
    /// checkpoint path) derives per-worker `--shard` files numbered
    /// from 9000 so they never collide with subprocess-uid shards.
    pub fn spawn(
        worker_bin: &Path,
        addr: SocketAddr,
        n: usize,
        token: Option<&str>,
        checkpoint: Option<&Path>,
        extra_args: &[String],
    ) -> Result<LocalTcpWorkers, FleetError> {
        let mut children = Vec::with_capacity(n);
        for i in 0..n {
            let mut argv: Vec<String> = vec!["--connect".into(), addr.to_string()];
            if let Some(token) = token {
                argv.push("--token".into());
                argv.push(token.to_string());
            }
            if let Some(main) = checkpoint {
                argv.push("--shard".into());
                argv.push(
                    crate::merge::shard_path(main, 9000 + i)
                        .display()
                        .to_string(),
                );
            }
            argv.extend(extra_args.iter().cloned());
            let child = Command::new(worker_bin)
                .args(&argv)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    FleetError::spawn_failure(
                        format!("spawn tcp worker: {e}"),
                        worker_bin,
                        argv.clone(),
                    )
                })?;
            children.push(child);
        }
        Ok(LocalTcpWorkers { children })
    }

    /// OS pids of the children (e.g. to kill one mid-run in tests).
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }
}

impl Drop for LocalTcpWorkers {
    fn drop(&mut self) {
        for child in &mut self.children {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// The worker-side connect loop: dials `addr` (retrying for
/// `connect_wait` — workers often start before the coordinator), then
/// runs [`crate::worker::worker_main`] over the socket. With
/// `reconnect`, a cleanly-shut-down session loops back to dialing so
/// one worker process can serve the
/// several sequential sweeps of a figure binary; the loop ends when no
/// coordinator answers for a full `connect_wait` window (or on
/// handshake rejection, which retrying cannot fix).
///
/// Returns the process exit code.
pub fn connect_worker_main(
    addr: &str,
    cfg: crate::worker::WorkerConfig,
    connect_wait: Duration,
    reconnect: bool,
) -> i32 {
    let mut first_session = true;
    loop {
        let deadline = std::time::Instant::now() + connect_wait;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break Some(stream),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        if first_session {
                            eprintln!("dtn-fleet-worker: cannot connect to {addr}: {e}");
                        }
                        break None;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
        };
        let Some(stream) = stream else {
            // No coordinator within the window: an initial failure is
            // an error, running out of sweeps to serve is success.
            return if first_session { 1 } else { 0 };
        };
        let _ = stream.set_nodelay(true);
        let Ok(writer) = stream.try_clone() else {
            return 1;
        };
        let code = crate::worker::worker_main(cfg.clone(), BufReader::new(stream), writer);
        if code == 3 || !reconnect {
            return code; // rejected, or single-session mode
        }
        first_session = false;
    }
}

/// Resolves a `HOST:PORT` string (as given to `--listen`/`--connect`)
/// to a socket address. Exposed for the scenario binaries.
pub fn parse_socket_addr(addr: &str) -> Result<SocketAddr, FleetError> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| FleetError::new(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| FleetError::new(format!("{addr} resolves to no address")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;

    fn hello_frame(protocol: u32, token: Option<&str>) -> String {
        WorkerMsg::Hello {
            pid: 4242,
            protocol,
            token: token.map(str::to_string),
        }
        .to_line()
    }

    /// Dials the transport, performs a raw handshake, returns the
    /// server's answer frame (None = accepted / no reply yet).
    fn raw_handshake(addr: SocketAddr, hello: &str) -> Option<CoordinatorMsg> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, hello).unwrap();
        let mut reader = BufReader::new(stream);
        match read_frame(&mut reader) {
            Ok(Some(line)) => serde_json::from_str(&line).ok(),
            _ => None,
        }
    }

    #[test]
    fn version_mismatch_is_rejected_with_reason() {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let reply = raw_handshake(transport.local_addr(), &hello_frame(1, None));
        match reply {
            Some(CoordinatorMsg::Reject { reason }) => {
                assert!(reason.contains("protocol version mismatch"), "{reason}");
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        assert_eq!(transport.rejected_handshakes(), 1);
    }

    #[test]
    fn token_mismatch_is_rejected_without_leaking_the_token() {
        let transport = TcpTransport::bind("127.0.0.1:0")
            .expect("bind")
            .with_token(Some("sesame".into()));
        for bad in [None, Some("guess")] {
            let reply = raw_handshake(transport.local_addr(), &hello_frame(PROTOCOL_VERSION, bad));
            match reply {
                Some(CoordinatorMsg::Reject { reason }) => {
                    assert!(reason.contains("token"), "{reason}");
                    assert!(!reason.contains("sesame"), "must not leak: {reason}");
                }
                other => panic!("expected Reject, got {other:?}"),
            }
        }
        assert_eq!(transport.rejected_handshakes(), 2);
    }

    #[test]
    fn garbage_first_frame_is_rejected() {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let reply = raw_handshake(transport.local_addr(), "\"Heartbeat\"");
        assert!(
            matches!(reply, Some(CoordinatorMsg::Reject { .. })),
            "non-Hello first frame must be rejected, got {reply:?}"
        );
    }

    #[test]
    fn authenticated_connection_is_adoptable_and_counted() {
        let transport = TcpTransport::bind("127.0.0.1:0")
            .expect("bind")
            .with_token(Some("sesame".into()));
        assert_eq!(transport.waiting_workers(), 0);
        let stream = TcpStream::connect(transport.local_addr()).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, &hello_frame(PROTOCOL_VERSION, Some("sesame"))).unwrap();
        // Wait for the handshake thread to queue the connection.
        for _ in 0..100 {
            if transport.waiting_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(transport.waiting_workers(), 1);

        let (tx, rx) = std::sync::mpsc::channel();
        transport.expect_workers(1);
        let mut handle = transport.spawn(7, tx).expect("adopts the queued worker");
        assert_eq!(handle.pid(), 4242, "pid comes from the Hello");
        // The replayed Hello is the first envelope.
        let (uid, env) = rx.recv_timeout(Duration::from_secs(5)).expect("hello");
        assert_eq!(uid, 7);
        assert!(matches!(
            env,
            Envelope::Msg(WorkerMsg::Hello { pid: 4242, .. })
        ));
        // Closing the client side surfaces as Gone.
        drop(writer);
        stream.shutdown(Shutdown::Both).ok();
        drop(stream);
        let (uid, env) = rx.recv_timeout(Duration::from_secs(5)).expect("gone");
        assert_eq!(uid, 7);
        assert!(matches!(env, Envelope::Gone));
        handle.kill();
    }

    #[test]
    fn spawn_without_any_connection_fails_fast_on_respawn_path() {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        transport.expect_workers(0); // no blocking budget → respawn path
        let (tx, _rx) = std::sync::mpsc::channel();
        let started = std::time::Instant::now();
        let err = match transport.spawn(1, tx) {
            Err(err) => err,
            Ok(_) => panic!("nothing to adopt"),
        };
        assert!(started.elapsed() < Duration::from_secs(5), "must not block");
        assert!(err.message.contains("no worker connected"), "{err}");
    }
}
