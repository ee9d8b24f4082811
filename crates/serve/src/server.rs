//! The server: a nonblocking acceptor plus a fixed worker pool sharing a
//! connection queue.
//!
//! ## Scheduling
//!
//! The acceptor thread polls `TcpListener::accept` and pushes fresh
//! connections onto a `Mutex<VecDeque>` + `Condvar` queue. Each worker
//! pops a connection, serves every complete frame it has buffered, and —
//! crucially — *requeues* the connection when it goes quiet instead of
//! camping on it. That keeps N workers fair across M ≥ N connections
//! (thread-per-core with a connection scheduler, not thread-per-
//! connection), so a handful of workers on a small box serves many
//! clients without starving any of them.
//!
//! Whether "quiet" costs anything depends on who else is waiting: when
//! the queue holds other connections, the worker probes with a
//! *nonblocking* read and rotates in microseconds instead of burning a
//! kernel-timer tick (~1–4 ms) per rotation blocking on a peer that is
//! thinking; only when the queue is empty does it block with the
//! [`ServerConfig::poll`] timeout. Each connection carries its own frame
//! cursor, so bytes that arrived ahead of the parse — pipelined requests
//! or a partial frame — survive the rotation intact.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or a `SHUTDOWN` request) flips an atomic
//! flag. The acceptor stops accepting; workers finish the request they
//! are on, drain whatever frames their current connection has already
//! sent, then exit; the control thread joins everyone and calls
//! [`Backend::flush`] exactly once so durable state hits disk before
//! [`Server::join`] returns.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nyaya_core::par::cores;

use crate::protocol::{write_frame, Request, Response};
use crate::Backend;

/// How the server listens and schedules.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads popping the connection queue. Defaults to
    /// [`cores`] (thread-per-core, at least 2).
    pub workers: usize,
    /// Per-frame payload bound; see `protocol::DEFAULT_MAX_FRAME`.
    pub max_frame: usize,
    /// How long a worker waits for a quiet connection's next frame
    /// before requeuing it and moving on.
    pub poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: cores(),
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            poll: Duration::from_millis(5),
        }
    }
}

/// One scheduled connection: the stream plus its frame cursor, so bytes
/// read ahead of the parse (pipelined requests, a partial frame caught
/// mid-flight) survive requeues instead of being dropped with a
/// transient buffer.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes, always prefix-aligned on a frame
    /// boundary: zero or more complete frames followed by at most one
    /// partial frame.
    inbox: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            inbox: Vec::new(),
        }
    }

    /// Pop the first complete frame out of the inbox, if any.
    /// `Err` means the peer announced a frame over `max_frame` — the
    /// connection is garbage (or hostile) and must be closed before the
    /// length prefix talks us into the allocation.
    fn take_frame(&mut self, max_frame: usize) -> Result<Option<Vec<u8>>, ()> {
        if self.inbox.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.inbox[0], self.inbox[1], self.inbox[2], self.inbox[3]])
            as usize;
        if len > max_frame {
            return Err(());
        }
        if self.inbox.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.inbox[4..4 + len].to_vec();
        self.inbox.drain(..4 + len);
        Ok(Some(payload))
    }
}

/// Shared state between the acceptor, the workers and the handle.
struct Shared {
    queue: Mutex<VecDeque<Conn>>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn push(&self, conn: Conn) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(conn);
        drop(queue);
        self.wake.notify_one();
    }

    /// Whether other connections are waiting for a worker right now —
    /// the scheduler's cue to rotate with a nonblocking probe instead of
    /// a blocking poll.
    fn peers_waiting(&self) -> bool {
        !self
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Pop the next connection; blocks until one arrives or shutdown is
    /// signalled *and* the queue has drained.
    fn pop(&self) -> Option<Conn> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(conn) = queue.pop_front() {
                return Some(conn);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Signal graceful shutdown: stop accepting, drain, flush, exit.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server; dropping it without [`Server::join`] aborts
/// ungracefully (threads are detached), so join it.
pub struct Server {
    addr: std::net::SocketAddr,
    handle: ServerHandle,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    backend: Arc<dyn Backend>,
}

impl Server {
    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A cloneable handle for signalling shutdown from elsewhere
    /// (signal handlers, tests, the `SHUTDOWN` verb does it itself).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Block until shutdown is signalled, every worker has drained its
    /// connections, and the backend has flushed.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // All frames already received are answered; now persist.
        self.backend.flush();
    }
}

/// Bind `addr` and start serving `backend` on background threads.
///
/// Returns immediately; call [`Server::join`] to block until graceful
/// shutdown completes (including the backend flush).
pub fn serve(
    addr: impl ToSocketAddrs,
    backend: Arc<dyn Backend>,
    config: ServerConfig,
) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        shutdown: AtomicBool::new(false),
    });
    let handle = ServerHandle {
        shared: Arc::clone(&shared),
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        let _ = conn.set_nodelay(true);
                        shared.push(Conn::new(conn));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
    };

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let backend = Arc::clone(&backend);
            let config = config.clone();
            std::thread::spawn(move || worker_loop(&shared, &*backend, &config))
        })
        .collect();

    Ok(Server {
        addr,
        handle,
        acceptor: Some(acceptor),
        workers,
        backend,
    })
}

/// What to do with a connection after serving (or failing) one frame.
enum After {
    /// Still live but quiet — hand it back to the queue.
    Requeue,
    /// Closed by the peer or errored — drop it.
    Close,
}

fn worker_loop(shared: &Shared, backend: &dyn Backend, config: &ServerConfig) {
    while let Some(mut conn) = shared.pop() {
        let after = serve_some(&mut conn, backend, shared, config);
        match after {
            After::Requeue if !shared.shutdown.load(Ordering::SeqCst) => shared.push(conn),
            // On shutdown the connection got its drain pass inside
            // serve_some (read until quiet); close it now.
            After::Requeue | After::Close => drop(conn),
        }
    }
}

/// Serve frames off one connection until it goes quiet, closes, or
/// errors. "Quiet" is cheap when peers are queued (a nonblocking probe,
/// so the worker rotates in microseconds) and patient when they are not
/// (a blocking read capped by [`ServerConfig::poll`]). During shutdown
/// this doubles as the drain pass: whatever the peer already sent gets
/// answered before the close.
fn serve_some(
    conn: &mut Conn,
    backend: &dyn Backend,
    shared: &Shared,
    config: &ServerConfig,
) -> After {
    if conn.stream.set_read_timeout(Some(config.poll)).is_err() {
        return After::Close;
    }
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete frame already in the inbox.
        loop {
            let payload = match conn.take_frame(config.max_frame) {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(()) => return After::Close,
            };
            backend.record_request();
            let response = match Request::parse(&payload) {
                Ok(Request::Shutdown) => {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.wake.notify_all();
                    Response::Text("shutting down".to_owned())
                }
                Ok(request) => dispatch(&request, backend),
                Err(msg) => Response::Error(msg),
            };
            if write_frame(&mut (&conn.stream as &TcpStream), &response.encode()).is_err() {
                return After::Close;
            }
        }
        // Need more bytes. Rotating costs this worker nothing when other
        // connections are waiting, so probe without blocking; only camp
        // (bounded by the poll timeout) when the queue is empty.
        let probe = shared.peers_waiting();
        if probe && conn.stream.set_nonblocking(true).is_err() {
            return After::Close;
        }
        let read = (&conn.stream as &TcpStream).read(&mut chunk);
        if probe && conn.stream.set_nonblocking(false).is_err() {
            return After::Close;
        }
        match read {
            Ok(0) => return After::Close,
            Ok(n) => conn.inbox.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Quiet: during normal operation hand the connection
                // back so other connections get this worker; during
                // shutdown "quiet" means drained — close it.
                return After::Requeue;
            }
            Err(_) => return After::Close,
        }
    }
}

/// Answer one request. A backend that panics answers `ERR` naming the
/// panic, and the worker serves on: the pool is fixed, so a worker lost
/// per panic would leave, after `workers` panics, a server that accepts
/// connections and answers none.
fn dispatch(request: &Request, backend: &dyn Backend) -> Response {
    panic::catch_unwind(AssertUnwindSafe(|| call(request, backend))).unwrap_or_else(|payload| {
        let message = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        Response::Error(format!("backend panicked: {}", message.unwrap_or("?")))
    })
}

fn call(request: &Request, backend: &dyn Backend) -> Response {
    let result = match request {
        Request::Ping => Ok(Response::Pong),
        Request::Prepare { query } => backend.prepare(query).map(Response::Handle),
        Request::Answer { handle, at } => backend.answer(*handle, *at).map(Response::Answers),
        Request::Query { query, at } => backend.query(query, *at).map(Response::Answers),
        Request::Apply { retracts, inserts } => {
            backend.apply(retracts, inserts).map(Response::Applied)
        }
        Request::Stats => Ok(Response::Text(backend.stats_json())),
        Request::Explain { handle } => backend.explain(*handle).map(Response::Text),
        Request::Shutdown => unreachable!("handled before dispatch"),
    };
    result.unwrap_or_else(Response::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, DEFAULT_MAX_FRAME};
    use crate::{AnswerSet, ApplySummary};

    /// Answers `PING` like any backend and panics on every query.
    struct Panicking;

    impl Backend for Panicking {
        fn prepare(&self, _: &str) -> Result<u64, String> {
            Err("unused".to_owned())
        }
        fn answer(&self, _: u64, _: Option<u64>) -> Result<AnswerSet, String> {
            Err("unused".to_owned())
        }
        fn query(&self, query: &str, _: Option<u64>) -> Result<AnswerSet, String> {
            panic!("no plan for {query}")
        }
        fn apply(&self, _: &[String], _: &[String]) -> Result<ApplySummary, String> {
            Err("unused".to_owned())
        }
        fn stats_json(&self) -> String {
            String::new()
        }
        fn explain(&self, _: u64) -> Result<String, String> {
            Err("unused".to_owned())
        }
    }

    /// One request on `stream` and its response; a server that never
    /// answers fails the read after the stream's timeout.
    fn exchange(stream: &mut TcpStream, request: &Request) -> Response {
        write_frame(stream, &request.encode()).expect("send");
        let payload = read_frame(stream, DEFAULT_MAX_FRAME)
            .expect("the server answers before the read timeout")
            .expect("the server keeps the connection");
        Response::parse(&payload).expect("a well-formed response")
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    }

    #[test]
    fn a_panicking_backend_answers_err_and_keeps_its_worker() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = serve("127.0.0.1:0", Arc::new(Panicking), config).expect("bind");
        let mut first = connect(server.local_addr());
        let query = Request::Query {
            query: "q(X) :- p(X).".to_owned(),
            at: None,
        };
        for _ in 0..2 {
            match exchange(&mut first, &query) {
                Response::Error(message) => assert!(
                    message.contains("backend panicked: no plan for q(X) :- p(X)."),
                    "{message}"
                ),
                other => panic!("expected ERR, got {other:?}"),
            }
        }
        // The one worker still serves: the panicking connection, and a
        // new one.
        assert_eq!(exchange(&mut first, &Request::Ping), Response::Pong);
        let mut second = connect(server.local_addr());
        assert_eq!(exchange(&mut second, &Request::Ping), Response::Pong);
        drop((first, second));
        server.handle().shutdown();
        server.join();
    }
}
