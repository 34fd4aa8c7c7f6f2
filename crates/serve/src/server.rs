//! A small threaded HTTP server over `std::net::TcpListener`.
//!
//! Shape: one accept thread feeds accepted connections into an mpsc
//! channel drained by a fixed pool of worker threads. Each worker reads
//! one request (bounded, with a read deadline), hands it to the
//! [`Handler`], writes the response, and closes the connection.
//!
//! Shutdown ordering (also enforced on `Drop`):
//!
//! 1. the [`ShutdownHandle`] flag flips and [`HttpServer::shutdown`]
//!    wakes the accept thread (blocked in `accept`) with one connection
//!    to its own address — the thread sees the flag, drops that
//!    connection unserved and exits, dropping the listener and the
//!    channel sender;
//! 2. workers drain connections already queued or in flight — the closed
//!    channel is their exit signal, so no accepted connection is dropped
//!    without a response;
//! 3. worker threads are joined, then the caller may drop the engine.
//!
//! The accept thread also supervises the pool: after each accept, before
//! the connection is queued, a worker killed by a panicking handler is
//! respawned (counted in
//! `capmaestro_serve_worker_respawns_total`), mirroring the
//! `WorkerDeployment` respawn ladder in `capmaestro-core`.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use capmaestro_core::obs::{self, names, Recorder};

use crate::http::{parse_request, HttpError, Request, Response, SERVER_LIMITS};

/// A request handler. Implementations must be shareable across worker
/// threads; panics are tolerated (the worker is respawned) but cost the
/// in-flight connection its response.
pub trait Handler: Send + Sync + 'static {
    /// Produce the response for one parsed request.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Per-connection read deadline, for the whole request.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection write deadline.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for [`HttpServer::bind`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Sink for server metrics (requests, client errors, respawns).
    pub recorder: Arc<dyn Recorder>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            recorder: obs::null_recorder(),
        }
    }
}

impl HttpConfig {
    /// Set the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the worker-thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the metrics recorder.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

/// Cloneable handle that requests a graceful server shutdown.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Ask the server to stop: connections accepted from now on are
    /// closed unserved, and [`HttpServer::shutdown`] (or dropping the
    /// server) wakes the accept thread, drains and joins.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A running HTTP server; dropping it performs a graceful shutdown.
#[derive(Debug)]
pub struct HttpServer {
    /// The bound local address (useful with ephemeral ports).
    local_addr: SocketAddr,
    /// Shared shutdown flag.
    shutdown: ShutdownHandle,
    /// The accept/supervisor thread, present until shutdown.
    accept_thread: Option<JoinHandle<()>>,
    /// Worker pool handles are owned by the accept thread; this receiver
    /// yields them back at shutdown so they can be joined. (Wrapped in a
    /// `Mutex` only to keep `HttpServer: Sync`; it is drained once.)
    worker_handles: Option<Mutex<Receiver<JoinHandle<()>>>>,
}

/// Everything a worker thread needs to serve connections.
struct WorkerContext {
    /// Shared end of the connection queue.
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    /// The request handler.
    handler: Arc<dyn Handler>,
    /// Metrics sink.
    recorder: Arc<dyn Recorder>,
}

impl HttpServer {
    /// Bind `config.addr` and start serving `handler`.
    pub fn bind(config: HttpConfig, handler: Arc<dyn Handler>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = ShutdownHandle::default();

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers = config.workers.max(1);
        // Sized so the accept thread can park every handle (initial pool
        // plus any respawns) without blocking at shutdown.
        let (handle_tx, handle_rx) = mpsc::sync_channel::<JoinHandle<()>>(workers * 64);

        let mut pool: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| spawn_worker(&config, &conn_rx, &handler))
            .collect();

        let accept_shutdown = shutdown.clone();
        let accept_config = config.clone();
        let accept_handler = handler;
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                accept_loop(
                    listener,
                    conn_tx,
                    &accept_shutdown,
                    &accept_config,
                    &conn_rx,
                    &accept_handler,
                    &mut pool,
                );
                // Hand the (possibly respawned) pool back for joining.
                for handle in pool {
                    let _ = handle_tx.send(handle);
                }
            })
            .expect("spawn serve-accept thread");

        Ok(HttpServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            worker_handles: Some(Mutex::new(handle_rx)),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request shutdown from another thread.
    pub(crate) fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Gracefully stop: stop accepting, drain queued and in-flight
    /// connections, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.request();
        if let Some(accept) = self.accept_thread.take() {
            wake_acceptor(self.local_addr);
            let _ = accept.join();
        }
        if let Some(handles) = self.worker_handles.take() {
            // The accept thread has exited, so the sender is dropped and
            // this drains without blocking.
            let handles = handles.into_inner().unwrap_or_else(|p| p.into_inner());
            for handle in handles.iter() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections on `listener` until `stop` is set, handing each to
/// `on_accept`. The loop blocks in `accept`; whoever sets `stop` then
/// wakes it with [`wake_acceptor`]. The flag is checked after every
/// accept, so the wake connection (and any racing it) is dropped unserved.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut on_accept: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => on_accept(stream),
            // Transient failures (an aborted handshake, descriptor
            // exhaustion): pause so a persistent one cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Wake an acceptor blocked in [`accept_until`] on `addr` with one
/// throwaway connection; an unspecified bind address (`0.0.0.0`, `::`)
/// is reached over loopback.
pub(crate) fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Accept connections until shutdown, supervising the worker pool.
fn accept_loop(
    listener: TcpListener,
    conn_tx: Sender<TcpStream>,
    shutdown: &ShutdownHandle,
    config: &HttpConfig,
    conn_rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &Arc<dyn Handler>,
    pool: &mut [JoinHandle<()>],
) {
    accept_until(&listener, &shutdown.0, |stream| {
        // Respawn workers killed by panicking handlers before queueing
        // more work for the pool.
        for slot in pool.iter_mut() {
            if slot.is_finished() {
                let dead = std::mem::replace(slot, spawn_worker(config, conn_rx, handler));
                let _ = dead.join();
                config
                    .recorder
                    .counter_add(names::SERVE_WORKER_RESPAWNS_TOTAL, 1);
            }
        }
        // Workers only exit once this sender is dropped, so a send can
        // only fail after shutdown; drop the connection unanswered then.
        let _ = conn_tx.send(stream);
    });
    // Dropping conn_tx here closes the channel: workers finish whatever
    // is queued or in flight, then exit.
}

/// Spawn one worker thread over the shared connection queue.
fn spawn_worker(
    config: &HttpConfig,
    conn_rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &Arc<dyn Handler>,
) -> JoinHandle<()> {
    let ctx = WorkerContext {
        rx: Arc::clone(conn_rx),
        handler: Arc::clone(handler),
        recorder: Arc::clone(&config.recorder),
    };
    std::thread::Builder::new()
        .name("serve-worker".to_string())
        .spawn(move || worker_loop(&ctx))
        .expect("spawn serve-worker thread")
}

/// Serve connections from the queue until the channel closes.
fn worker_loop(ctx: &WorkerContext) {
    loop {
        // A poisoned lock only means a sibling worker panicked while
        // holding it; the receiver itself is still sound.
        let next = {
            let guard = match ctx.rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(stream) = next else {
            // Channel closed: accept loop exited, queue drained.
            return;
        };
        handle_connection(ctx, stream);
    }
}

/// Read one request, dispatch it, write the response.
fn handle_connection(ctx: &WorkerContext, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));

    let response = match read_request(&mut stream) {
        Ok(Some(request)) => {
            ctx.recorder.counter_add(names::SERVE_REQUESTS_TOTAL, 1);
            ctx.handler.handle(&request)
        }
        Ok(None) => return, // clean close before any bytes — nothing to answer
        Err(error) => {
            ctx.recorder.counter_add(names::SERVE_REQUESTS_TOTAL, 1);
            ctx.recorder
                .counter_add(names::SERVE_CLIENT_ERRORS_TOTAL, 1);
            error.to_response()
        }
    };
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
}

/// Read until one complete request, a protocol error, or the deadline.
///
/// Returns `Ok(None)` when the peer closes the connection before sending
/// any bytes (a health-check connect-and-drop, not an error).
fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let deadline = Instant::now() + READ_TIMEOUT;
    loop {
        match parse_request(&buf, &SERVER_LIMITS) {
            crate::http::ParseOutcome::Complete { request, .. } => {
                return Ok(Some(request));
            }
            crate::http::ParseOutcome::Error(error) => return Err(error),
            crate::http::ParseOutcome::Incomplete => {}
        }
        if Instant::now() >= deadline {
            return Err(HttpError::bad_request("request read timed out"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::bad_request("truncated request"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::bad_request("request read timed out"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(HttpError::bad_request("connection error while reading")),
        }
    }
}
