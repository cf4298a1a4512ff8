//! The thin fleet-worker shell: parse a handful of flags, then hand
//! stdio (or a TCP socket) to [`dtn_fleet::worker::worker_main`], which
//! speaks length-prefixed JSON frames on either. All protocol and
//! execution logic lives in the library so tests share it.
//!
//! Flags:
//!
//! * `--connect HOST:PORT` — dial a `--listen`ing coordinator and
//!   speak over the socket instead of stdio.
//! * `--token SECRET` — shared-secret token for the TCP handshake.
//! * `--connect-wait SECS` — how long to retry the initial dial
//!   (default 10; workers often start before the coordinator).
//! * `--reconnect` — after a clean shutdown, dial again and serve the
//!   next sweep (figure binaries run several in sequence); exits when
//!   no coordinator answers for a full `--connect-wait` window.
//! * `--heartbeat SECS` — heartbeat period (default 0.5, 0 disables).
//! * `--shard PATH` — private JSONL shard checkpoint for finished
//!   cells (crash insurance the coordinator merges on resume).
//! * `--fail-once HASH:MARKER` — test hook: exit(17) the first time
//!   cell `HASH` is assigned and `MARKER` does not exist.
//! * `--hang-once HASH:MARKER` — test hook: hang instead (heartbeats
//!   keep flowing; only the coordinator's per-cell timeout fires).

use dtn_fleet::tcp::connect_worker_main;
use dtn_fleet::worker::{worker_main, FaultHook, WorkerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut cfg = WorkerConfig::default();
    let mut connect: Option<String> = None;
    let mut connect_wait = 10.0f64;
    let mut reconnect = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--connect" => connect = Some(value("--connect")),
            "--token" => cfg.token = Some(value("--token")),
            "--connect-wait" => {
                let v = value("--connect-wait");
                connect_wait = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--connect-wait: not a number: {v}")));
            }
            "--reconnect" => reconnect = true,
            "--heartbeat" => {
                let v = value("--heartbeat");
                cfg.heartbeat_secs = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--heartbeat: not a number: {v}")));
            }
            "--shard" => cfg.shard = Some(PathBuf::from(value("--shard"))),
            "--fail-once" => {
                let v = value("--fail-once");
                cfg.fail_once = Some(FaultHook::parse(&v).unwrap_or_else(|| {
                    die(&format!("--fail-once: expected HASH:MARKER, got {v}"))
                }));
            }
            "--hang-once" => {
                let v = value("--hang-once");
                cfg.hang_once = Some(FaultHook::parse(&v).unwrap_or_else(|| {
                    die(&format!("--hang-once: expected HASH:MARKER, got {v}"))
                }));
            }
            "--help" | "-h" => {
                println!(
                    "dtn-fleet-worker: sweep-cell executor driven by a dtn-fleet coordinator\n\
                     (length-prefixed JSON frames over stdin/stdout, or a TCP socket\n\
                     with --connect)\n\n\
                     --connect HOST:PORT    dial a --listen'ing coordinator (TCP mode)\n\
                     --token SECRET         shared-secret token for the TCP handshake\n\
                     --connect-wait SECS    retry window for the dial (default 10)\n\
                     --reconnect            serve sequential sweeps until none answer\n\
                     --heartbeat SECS       heartbeat period (default 0.5, 0 disables)\n\
                     --shard PATH           private shard checkpoint JSONL\n\
                     --fail-once HASH:MARK  test hook: crash on first assignment of HASH\n\
                     --hang-once HASH:MARK  test hook: hang on first assignment of HASH"
                );
                return;
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    let code = match connect {
        Some(addr) => connect_worker_main(
            &addr,
            cfg,
            Duration::from_secs_f64(connect_wait.max(0.0)),
            reconnect,
        ),
        None => {
            let stdin = std::io::stdin();
            worker_main(cfg, stdin.lock(), std::io::stdout())
        }
    };
    std::process::exit(code);
}

fn die(msg: &str) -> ! {
    eprintln!("dtn-fleet-worker: {msg}");
    std::process::exit(2);
}
