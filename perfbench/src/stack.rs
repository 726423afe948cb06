//! Building and tearing down what the generator drives: the fleet, the
//! actor runtime, and the shipped `serve_reactor` TCP door exactly as it
//! ships (default config, its own accept loop, no socket options beyond
//! what the client sets), plus the push collector of `push_fanout`.

use std::fs;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use apcache_reactor::{serve_reactor, ReactorConfig};
use apcache_runtime::PushFilter;
use apcache_runtime::{Runtime, RuntimeHandle, ShardedStore, ShardedStoreBuilder};
use apcache_store::{FsyncPolicy, InitialWidth, SpoolConfig};
use apcache_wire::{RemoteStoreClient, TcpTransport, Transport, WireError};

use crate::gen::{answer_ok, drive, Clock, Door, Probe, Record};
use crate::spec::{index_of, Op, Step, Workload, INITIAL_WIDTH};

/// The client of one connection to the TCP door.
pub type TcpClient = RemoteStoreClient<String, TcpTransport>;

/// The clients' own in-flight cap; the generator keeps each workload's
/// window at or below it.
pub const CLIENT_WINDOW: usize = 32;

/// Per-run scratch space inside the checkout: spool directories live
/// here and are removed when their run ends.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()))
}

/// Remove a run's scratch directory, and the scratch root once no other
/// run uses it.
pub fn remove_scratch(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    if let Some(root) = dir.parent() {
        let _ = fs::remove_dir(root);
    }
    Ok(())
}

/// The workload's fleet on `shards` shards, spooling into `spool` when
/// given (segments fsync only on rotation).
pub fn fleet(
    wl: &Workload,
    keys: &[String],
    shards: usize,
    spool: Option<&Path>,
) -> ShardedStore<String> {
    let mut b =
        ShardedStoreBuilder::new().shards(shards).initial_width(InitialWidth::Fixed(INITIAL_WIDTH));
    for (i, key) in keys.iter().enumerate() {
        b = b.source(key.clone(), wl.initial_value(i as u32));
    }
    if let Some(dir) = spool {
        let cfg = SpoolConfig { fsync: FsyncPolicy::OnRotate, ..SpoolConfig::default() };
        b = b.with_spool_config(dir.to_string_lossy().into_owned(), cfg);
    }
    b.build().expect("fleet configuration is valid")
}

/// One read of every key at an unbounded constraint, one at a time:
/// touches each key's state and the whole serving path without
/// refreshing anything, so the timed phase starts warm and protocol state
/// is unchanged. Window 1 keeps it free of delayed-ACK stalls, so its
/// time is the deterministic per-key work.
pub fn warm_up<D: Door>(door: &mut D, keys: &[String]) -> Record {
    let steps: Vec<Step> = (0..keys.len() as u32)
        .map(|key| Step { op: Op::Read { key, delta: f64::INFINITY }, truth: f64::NAN })
        .collect();
    let mut probe = Probe { clock: Clock::new(), write_submits: None, spans: None };
    drive(door, keys, &steps, 1, &mut probe)
}

/// Subscribe `client` to every key with `PushFilter::Always`, one at a
/// time (like the warm-up, free of delayed-ACK stalls).
pub fn subscribe_all<T: Transport>(
    client: &mut RemoteStoreClient<String, T>,
    keys: &[String],
) -> Result<(), String> {
    for key in keys {
        client.subscribe(key, PushFilter::Always, 0).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The serving stack behind the TCP door, with its connections open,
/// subscribed and warmed up.
pub struct Stack {
    pub runtime: Runtime<String>,
    server: JoinHandle<Result<(), WireError>>,
    pub client: TcpClient,
    /// `push_fanout`'s subscriber connection and a handle on its socket.
    pub subscriber: Option<(TcpClient, TcpStream)>,
    pub local: SocketAddr,
    pub peer: SocketAddr,
    spool: Option<PathBuf>,
}

impl Stack {
    /// Fleet build (`shards` shards) → `Runtime::launch` →
    /// `serve_reactor` bind → connect → subscribes → one warm-up pass over
    /// the keys.
    pub fn up(
        wl: &Workload,
        keys: &[String],
        shards: usize,
        spool: Option<PathBuf>,
    ) -> Result<Stack, String> {
        let fleet = fleet(wl, keys, shards, spool.as_deref());
        let runtime = Runtime::launch(fleet).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let handle = runtime.handle();
        let server =
            thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));
        let connect = || -> Result<(TcpClient, TcpStream), String> {
            let transport = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
            let socket = transport.inner().try_clone().map_err(|e| e.to_string())?;
            Ok((RemoteStoreClient::with_window(transport, CLIENT_WINDOW), socket))
        };
        let (mut client, socket) = connect()?;
        let local = socket.local_addr().map_err(|e| e.to_string())?;
        let peer = socket.peer_addr().map_err(|e| e.to_string())?;
        let subscriber = if wl.subscribe_all {
            let (mut sub, sub_socket) = connect()?;
            subscribe_all(&mut sub, keys)?;
            Some((sub, sub_socket))
        } else {
            None
        };
        let warm = warm_up(&mut client, keys);
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.first_problem));
        }
        Ok(Stack { runtime, server, client, subscriber, local, peer, spool })
    }

    /// Close the connections and the door, drain the runtime, remove the
    /// spool directory, and hand back the drained fleet.
    pub fn down(self) -> Result<ShardedStore<String>, String> {
        if let Some((sub, socket)) = self.subscriber {
            let _ = socket.shutdown(Shutdown::Both);
            drop(sub);
        }
        self.client.shutdown().map_err(|e| e.to_string())?;
        self.server
            .join()
            .map_err(|_| "door thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        let store = self.runtime.into_store().map_err(|e| e.to_string())?;
        if let Some(dir) = self.spool {
            fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        Ok(store)
    }
}

/// What the push collector saw.
#[derive(Default)]
pub struct Pushes {
    /// Submit of the triggering write → arrival of its push, µs.
    pub lat: Vec<f64>,
    pub received: u64,
    pub violations: u64,
    pub first_violation: Option<String>,
}

impl Pushes {
    /// Fold a later pass's pushes into these.
    pub fn absorb(&mut self, other: Pushes) {
        self.lat.extend(other.lat);
        self.received += other.received;
        self.violations += other.violations;
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation;
        }
    }
}

/// How long the collector waits for the pushes the writes caused after
/// the writer finished.
const PUSH_DRAIN: Duration = Duration::from_secs(20);

/// Shared between the writer side and the push collector.
pub struct PushBoard<'a> {
    pub steps: &'a [Step],
    pub write_submits: &'a [AtomicU64],
    pub clock: Clock,
    pub received: AtomicU64,
}

impl PushBoard<'_> {
    /// Check and time one push; `arrived` in the board clock's ns.
    pub fn record(
        &self,
        out: &mut Pushes,
        now: u64,
        interval: &apcache_core::Interval,
        arrived: u64,
    ) {
        out.received += 1;
        self.received.fetch_add(1, Ordering::Release);
        let Some(index) = index_of(now).filter(|&i| i < self.steps.len()) else {
            out.violations += 1;
            out.first_violation.get_or_insert(format!("push at unknown logical time {now}"));
            return;
        };
        let step = &self.steps[index];
        if !matches!(step.op, Op::Write { .. }) || !answer_ok(interval, step.truth, f64::INFINITY) {
            out.violations += 1;
            out.first_violation.get_or_insert(format!(
                "push {interval:?} at time {now} misses its write {step:?}"
            ));
            return;
        }
        let submitted = self.write_submits[index].load(Ordering::Acquire);
        out.lat.push(arrived.saturating_sub(submitted) as f64 / 1_000.0);
    }

    /// Wait until `expected` pushes arrived or the drain bound passed.
    pub fn await_pushes(&self, expected: u64, done: &AtomicBool) {
        let deadline = std::time::Instant::now() + PUSH_DRAIN;
        while self.received.load(Ordering::Acquire) < expected
            && std::time::Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::SeqCst);
    }
}

/// Collect pushes off a subscriber connection until its stream ends.
pub fn collect_remote<T: Transport>(
    board: &PushBoard<'_>,
    sub: &mut RemoteStoreClient<String, T>,
) -> Pushes {
    let mut out = Pushes::default();
    while let Ok((_, event)) = sub.next_push() {
        board.record(&mut out, event.now, &event.interval, board.clock.ns());
    }
    out
}

/// Collect pushes streamed to a runtime handle's completion queue until
/// `done` is set and the queue is quiet.
pub fn collect_runtime(
    board: &PushBoard<'_>,
    sub: &RuntimeHandle<String>,
    done: &AtomicBool,
) -> Pushes {
    let mut out = Pushes::default();
    loop {
        match sub.completions().wait_timeout(Duration::from_millis(5)) {
            Some(c) => {
                if let Ok(apcache_runtime::Outcome::Push(event)) = c.outcome {
                    board.record(&mut out, event.now, &event.interval, board.clock.ns());
                }
            }
            None if done.load(Ordering::SeqCst) => return out,
            None => {}
        }
    }
}
