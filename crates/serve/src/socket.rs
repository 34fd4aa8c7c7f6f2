//! The socket [`Transport`]: rack workers as separate OS processes.
//!
//! The room controller binds a TCP listener; agents connect *outbound*
//! (datacenter-friendly: only the controller needs a routable address)
//! and identify themselves with [`UpMsg::Hello`]. One reader thread per
//! connection decodes frames, answers heartbeats inline, and forwards
//! everything else to the deployment through a channel, so
//! [`WorkerDeployment::run_round`](capmaestro_core::WorkerDeployment)
//! drives socket agents through exactly the code path it drives
//! in-process threads.
//!
//! Liveness is wholly owned here, feeding the deployment's existing
//! staleness ladder (stale-hold → fail-safe) without new control-plane
//! states:
//!
//! - a torn frame, EOF, or write failure kills the connection
//!   immediately — `send` starts returning `false` and the deployment
//!   treats the worker as partitioned;
//! - heartbeat silence past [`HEARTBEAT_TIMEOUT`]
//!   does the same for a *frozen* peer (SIGSTOP, network blackhole)
//!   whose socket is still open;
//! - recovery is agent-driven: a reconnecting agent re-handshakes and
//!   simply replaces its slot, which the deployment observes as a
//!   dead→alive transition (counted as a respawn).

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use capmaestro_core::wire::{decode_up, encode_down};
use capmaestro_core::workers::Transport;
use capmaestro_core::{DownMsg, UpMsg};

use crate::frame::{write_frame, FrameReader};
use crate::server::{accept_until, wake_acceptor};

/// How long a reader thread waits per poll before re-checking shutdown.
const READER_SLICE: Duration = Duration::from_millis(100);

/// Deadline for a fresh connection to complete its Hello.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Silence (no frame of any kind) after which a worker is declared dead
/// even though its socket is open — the frozen-peer detector.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-frame write deadline toward an agent.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Tuning knobs for a [`SocketTransport`].
#[derive(Debug, Clone)]
pub struct SocketTransportConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of rack workers expected to connect.
    pub worker_count: usize,
}

impl SocketTransportConfig {
    /// A listener for `worker_count` agents on a localhost ephemeral
    /// port.
    pub fn new(worker_count: usize) -> Self {
        SocketTransportConfig {
            addr: "127.0.0.1:0".to_string(),
            worker_count,
        }
    }

    /// Replaces the bind address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }
}

/// One worker's connection slot. `generation` fences stale reader
/// threads: a reconnect bumps it, and the old reader (still blocked on
/// the old socket) notices and exits without touching the new slot.
#[derive(Debug)]
struct ConnSlot {
    stream: Option<TcpStream>,
    generation: u64,
    last_seen: Instant,
    /// Latest cumulative violation count this worker reported, and the
    /// high-water mark across reconnects (an agent restart resets its
    /// local counter).
    violations_latest: u64,
    violations_floor: u64,
}

impl ConnSlot {
    fn violations_total(&self) -> u64 {
        self.violations_floor + self.violations_latest
    }
}

/// State shared between the transport, the accept thread, and the
/// per-connection reader threads.
#[derive(Debug)]
struct Shared {
    worker_count: usize,
    slots: Vec<Mutex<ConnSlot>>,
    up_tx: Sender<UpMsg>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Whether `worker`'s slot holds a connection that spoke recently.
    fn slot_alive(&self, worker: usize) -> bool {
        let Some(slot) = self.slots.get(worker) else {
            return false;
        };
        let guard = slot.lock().expect("slot lock");
        guard.stream.is_some() && guard.last_seen.elapsed() <= HEARTBEAT_TIMEOUT
    }

    /// Drops `worker`'s connection (if it is still generation `gen`;
    /// `None` forces it) and fences its reader.
    fn drop_conn(&self, worker: usize, gen: Option<u64>) {
        if let Some(slot) = self.slots.get(worker) {
            let mut guard = slot.lock().expect("slot lock");
            if gen.is_none_or(|g| g == guard.generation) {
                guard.stream = None;
                guard.generation += 1;
            }
        }
    }
}

/// The socket transport. See the module docs for the protocol.
#[derive(Debug)]
pub struct SocketTransport {
    shared: Arc<Shared>,
    up_rx: Receiver<UpMsg>,
    /// Messages pulled while waiting for `Advanced` acks, handed back to
    /// the next `recv_deadline` in arrival order.
    pending: VecDeque<UpMsg>,
    local_addr: std::net::SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SocketTransport {
    /// Binds the listener and starts accepting agents. Workers are *not*
    /// connected yet on return — use [`wait_for_workers`]
    /// (`Self::wait_for_workers`) before the first round for a clean
    /// start, or let early rounds ride the fail-safe path.
    pub fn bind(config: SocketTransportConfig) -> io::Result<Self> {
        assert!(config.worker_count > 0, "at least one rack worker is required");
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (up_tx, up_rx) = mpsc::channel();
        let now = Instant::now();
        let shared = Arc::new(Shared {
            worker_count: config.worker_count,
            slots: (0..config.worker_count)
                .map(|_| {
                    Mutex::new(ConnSlot {
                        stream: None,
                        generation: 0,
                        last_seen: now,
                        violations_latest: 0,
                        violations_floor: 0,
                    })
                })
                .collect(),
            up_tx,
            shutdown: AtomicBool::new(false),
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            thread::Builder::new()
                .name("socket-accept".to_string())
                .spawn(move || accept_loop(listener, shared, readers))
                .expect("spawn socket-accept thread")
        };
        Ok(SocketTransport {
            shared,
            up_rx,
            pending: VecDeque::new(),
            local_addr,
            accept_handle: Some(accept_handle),
            readers,
        })
    }

    /// The address agents should connect to.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Blocks until every worker slot is alive or `timeout` passes.
    /// Returns whether the fleet is fully connected.
    pub fn wait_for_workers(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if (0..self.shared.worker_count).all(|w| self.shared.slot_alive(w)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sends `msg` over `worker`'s live connection, tearing the slot
    /// down on failure.
    fn send_to(&self, worker: usize, msg: &DownMsg) -> bool {
        let Some(slot) = self.shared.slots.get(worker) else {
            return false;
        };
        let payload = encode_down(msg);
        let mut guard = slot.lock().expect("slot lock");
        if guard.last_seen.elapsed() > HEARTBEAT_TIMEOUT {
            // Frozen peer: declare it dead rather than queueing bytes
            // into a black hole.
            guard.stream = None;
            guard.generation += 1;
            return false;
        }
        let Some(stream) = guard.stream.as_mut() else {
            return false;
        };
        if write_frame(stream, &payload, WRITE_TIMEOUT).is_ok() {
            true
        } else {
            guard.stream = None;
            guard.generation += 1;
            false
        }
    }
}

impl Transport for SocketTransport {
    fn worker_count(&self) -> usize {
        self.shared.worker_count
    }

    fn send(&mut self, worker: usize, msg: DownMsg) -> bool {
        self.send_to(worker, &msg)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Option<UpMsg> {
        if let Some(msg) = self.pending.pop_front() {
            return Some(msg);
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        self.up_rx.recv_timeout(remaining).ok()
    }

    fn advance(&mut self, seconds: u32, deadline: Instant) -> bool {
        let mut waiting: Vec<usize> = (0..self.shared.worker_count)
            .filter(|&w| self.send_to(w, &DownMsg::Advance { seconds }))
            .collect();
        while !waiting.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            match self.up_rx.recv_timeout(remaining) {
                Ok(UpMsg::Advanced {
                    worker,
                    seconds: s,
                    ..
                }) if s == seconds => waiting.retain(|&w| w != worker),
                // Anything else (late metrics, acks from a prior epoch)
                // is handed back to the round loop in order.
                Ok(other) => self.pending.push_back(other),
                Err(_) => return false,
            }
        }
        true
    }

    fn is_alive(&self, worker: usize) -> bool {
        self.shared.slot_alive(worker)
    }

    fn kill(&mut self, worker: usize) {
        let _ = self.send_to(worker, &DownMsg::Shutdown);
        self.shared.drop_conn(worker, None);
    }

    fn respawn(&mut self, worker: usize) -> bool {
        // Recovery is agent-driven: an agent reconnects on its own and
        // the slot comes back alive. Respawn just reports that state.
        self.is_alive(worker)
    }

    fn violations(&self) -> u64 {
        self.shared
            .slots
            .iter()
            .map(|s| s.lock().expect("slot lock").violations_total())
            .sum()
    }

    fn shutdown(&mut self) {
        for w in 0..self.shared.worker_count {
            let _ = self.send_to(w, &DownMsg::Shutdown);
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in 0..self.shared.worker_count {
            self.shared.drop_conn(w, None);
        }
        if let Some(handle) = self.accept_handle.take() {
            wake_acceptor(self.local_addr);
            let _ = handle.join();
        }
        let handles: Vec<_> = {
            let mut readers = self.readers.lock().expect("readers lock");
            readers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.shutdown();
        }
    }
}

/// Accepts connections until shutdown, spawning one reader per socket.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_seq = 0u64;
    accept_until(&listener, &shared.shutdown, |stream| {
        conn_seq += 1;
        let shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name(format!("socket-agent-{conn_seq}"))
            .spawn(move || reader_loop(stream, shared))
            .expect("spawn socket reader thread");
        readers.lock().expect("readers lock").push(handle);
    });
}

/// Handshakes one inbound connection, registers it, then pumps frames
/// until the connection dies, the slot is superseded, or shutdown.
fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();

    // Handshake: first frame must be a valid Hello for this fleet.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let hello = match reader.read_frame(&mut stream, deadline) {
        Ok(Some(payload)) => payload,
        Ok(None) | Err(_) => return, // too slow, closed, or garbage
    };
    let worker = match decode_up(&hello) {
        Ok(UpMsg::Hello {
            worker,
            workers_total,
        }) if worker < shared.worker_count && workers_total == shared.worker_count => worker,
        _ => return, // wrong fleet shape or protocol breach
    };

    // Register, superseding a dead or silent predecessor. A *live*
    // predecessor wins: two agents claiming one worker index is an
    // operator error, and the second connection is refused.
    let my_gen = {
        let mut guard = shared.slots[worker].lock().expect("slot lock");
        if guard.stream.is_some() && guard.last_seen.elapsed() <= HEARTBEAT_TIMEOUT {
            return;
        }
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        guard.stream = Some(write_half);
        guard.generation += 1;
        guard.last_seen = Instant::now();
        // This connection starts a fresh agent-local violation counter;
        // bank whatever the previous incarnation reported.
        guard.violations_floor += guard.violations_latest;
        guard.violations_latest = 0;
        guard.generation
    };

    let welcome = encode_down(&DownMsg::Welcome {
        workers_total: shared.worker_count,
    });
    if write_frame(&mut stream, &welcome, WRITE_TIMEOUT).is_err() {
        shared.drop_conn(worker, Some(my_gen));
        return;
    }

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        {
            // Superseded by a reconnect? Exit without touching the slot.
            let guard = shared.slots[worker].lock().expect("slot lock");
            if guard.generation != my_gen {
                return;
            }
        }
        match reader.read_frame(&mut stream, Instant::now() + READER_SLICE) {
            Ok(None) => continue,
            Ok(Some(payload)) => {
                let Ok(msg) = decode_up(&payload) else {
                    // Garbage from a known worker: the connection can no
                    // longer be trusted to frame correctly.
                    shared.drop_conn(worker, Some(my_gen));
                    return;
                };
                {
                    let mut guard = shared.slots[worker].lock().expect("slot lock");
                    if guard.generation != my_gen {
                        return;
                    }
                    guard.last_seen = Instant::now();
                    if let UpMsg::Advanced {
                        violations_total, ..
                    } = msg
                    {
                        guard.violations_latest = violations_total;
                    }
                }
                match msg {
                    UpMsg::Heartbeat { nonce, .. } => {
                        // Answered inline so RTT measures the wire, not
                        // the round loop.
                        let ack = encode_down(&DownMsg::HeartbeatAck { nonce });
                        let mut guard = shared.slots[worker].lock().expect("slot lock");
                        if guard.generation != my_gen {
                            return;
                        }
                        if let Some(ws) = guard.stream.as_mut() {
                            if write_frame(ws, &ack, WRITE_TIMEOUT).is_err() {
                                guard.stream = None;
                                guard.generation += 1;
                                return;
                            }
                        }
                    }
                    UpMsg::Hello { .. } => {
                        // A second Hello mid-session is a protocol breach.
                        shared.drop_conn(worker, Some(my_gen));
                        return;
                    }
                    other => {
                        if shared.up_tx.send(other).is_err() {
                            return; // transport dropped
                        }
                    }
                }
            }
            Err(_) => {
                shared.drop_conn(worker, Some(my_gen));
                return;
            }
        }
    }
}
