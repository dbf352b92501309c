//! Transports: newline-delimited JSON over a pipe or a TCP socket.
//!
//! Both transports speak the same protocol (see [`crate::protocol`]): one
//! JSON object per line in, one JSON object per line out, in order. The
//! pipe mode drives a single session over any `BufRead`/`Write` pair
//! (stdin/stdout in the CLI, in-memory buffers in tests). The TCP mode is
//! a readiness-driven event loop: one reactor thread owns a nonblocking
//! listener and every connection, multiplexed by `poll(2)` (via
//! [`crate::sys`], std-only), with the bounded [`ServePool`] behind it
//! for compute. No thread is ever parked per connection, so a connection
//! storm or a crowd of slow-loris clients costs file descriptors and
//! bounded buffers — never threads.
//!
//! Transport code never computes: it parses, submits, and forwards. The
//! pool's bounded queue is the only admission control for *work*; the
//! reactor adds its own hygiene for *connections* ([`ServerConfig`]):
//!
//! * admission control — a hard connection cap; clients past it get one
//!   `overloaded` line (through the same bounded write path as any other
//!   response) and a close, and accepts are batch-limited per tick so an
//!   accept storm cannot starve live connections;
//! * slow-client defense — idle and write-stall deadlines, checked for
//!   every connection once per tick; a client that stops reading its
//!   responses is shed the moment its bounded write buffer would
//!   overflow, or dropped once its pending output has made no progress
//!   for `write_timeout`, never allowed to wedge the reactor;
//! * a line-length cap — a client streaming bytes without a newline
//!   cannot grow a read buffer without bound;
//! * [`TcpServer::stop`] tears the whole loop down promptly: the reactor
//!   observes the flag within one tick, closes every connection, and
//!   joins, even with clients parked mid-connection.
//!
//! Per-connection state is a small machine: bytes are framed into lines
//! across arbitrary TCP segmentation, complete lines queue in a bounded
//! inbox (reads pause when it fills), at most one request per connection
//! is in flight in the pool (which keeps responses in request order with
//! no reorder buffer), and every outbound line — answers, shed notices,
//! idle warnings — goes through one bounded write buffer flushed as
//! `poll(2)` reports writability. Pool workers hand finished responses to
//! the reactor through a completion queue plus a loopback wake socket, so
//! results are flushed promptly instead of waiting out a poll timeout.
//!
//! A tick is one `poll(2)`, the wake socket and the completion queue
//! drained, one accept burst, and then one pass over the connections: each
//! in turn reads what was ready, dispatches, advances a pending job op,
//! flushes, has both deadlines checked, and is closed if it is dead or
//! finished.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::failpoint;
use crate::pool::{ServePool, SubmitError, JOB_WAIT_TIMEOUT};
use crate::protocol::{parse_request, render_job_event, ErrorKind, Outcome, Request, Response};
use crate::sys::{self, PollFd};

/// How long one `optimize-events` follow tick blocks waiting for a fresh
/// event before re-checking the job's terminal state (pipe mode only; the
/// reactor polls followers nonblockingly every loop tick).
const FOLLOW_TICK: Duration = Duration::from_millis(250);

/// Complete-but-undispatched request lines buffered per connection before
/// the reactor stops reading from its socket (backpressure by unpolled
/// bytes, bounded by the kernel receive buffer).
const INBOX_MAX: usize = 128;

/// Socket reads per connection per tick; bounds one loud client's share
/// of a reactor tick at `READ_ROUNDS × 4096` bytes.
const READ_ROUNDS: usize = 16;

/// Connection-hygiene knobs for the TCP transport.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneous sessions; connections beyond it are answered
    /// with one `overloaded` error line and closed (clamped to ≥ 1).
    pub max_connections: usize,
    /// A session whose client sends nothing for this long is closed with
    /// an in-band `deadline-exceeded` notice.
    pub idle_timeout: Duration,
    /// The reactor tick: the upper bound on how long the loop sleeps in
    /// `poll(2)` when nothing is ready (and therefore on shutdown and
    /// deadline latency).
    pub poll_interval: Duration,
    /// Write-stall deadline: a client that stops reading its responses
    /// for this long while output is pending is dropped.
    pub write_timeout: Duration,
    /// Maximum request-line length in bytes; longer lines error the
    /// session (clamped to ≥ 1024).
    pub max_line_bytes: usize,
    /// Bound on one connection's pending output in bytes; a client whose
    /// buffered responses would exceed it is shed (clamped to ≥ 1024).
    /// Total reactor write memory is therefore bounded by
    /// `max_connections × write_buffer_cap` plus admission slack.
    pub write_buffer_cap: usize,
    /// Accepts per reactor tick (clamped to ≥ 1): rate-limits admission
    /// under a connection storm so live sessions keep being served.
    pub accept_burst: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(300),
            poll_interval: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            write_buffer_cap: 256 * 1024,
            accept_burst: 64,
        }
    }
}

/// Counters for one pipe/socket session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Non-blank lines read.
    pub requests: u64,
    /// Responses that carried an error outcome (parse errors included).
    pub errors: u64,
}

/// Serve one newline-delimited JSON session: read a request per line from
/// `reader`, write exactly one response line to `writer`, until EOF.
///
/// Lines are framed as the TCP reactor frames them. Blank lines are
/// skipped; a line that is not UTF-8 is decoded lossily, and it and any
/// other unparseable line produce a `parse` error response instead of
/// killing the session, so one bad client line never costs the stream. A
/// line still without its newline past [`ServerConfig::max_line_bytes`]
/// (the default, 64 KiB) gets one `parse` error and ends the session, so
/// the buffer stays bounded.
///
/// # Errors
///
/// Only transport failures (read/write/flush) abort the session; protocol
/// and engine errors are reported in-band.
pub fn serve_pipe<R: BufRead, W: Write>(
    pool: &ServePool,
    mut reader: R,
    mut writer: W,
) -> io::Result<SessionStats> {
    let max_line = ServerConfig::default().max_line_bytes;
    let mut stats = SessionStats::default();
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF: a last line without a newline still counts.
            if !line.is_empty() {
                respond_bytes(pool, &line, &mut writer, &mut stats)?;
            }
            return Ok(stats);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(at) => {
                line.extend_from_slice(&buf[..at]);
                reader.consume(at + 1);
                respond_bytes(pool, &line, &mut writer, &mut stats)?;
                line.clear();
            }
            None => {
                let len = buf.len();
                line.extend_from_slice(buf);
                reader.consume(len);
                if line.len() > max_line {
                    stats.requests += 1;
                    stats.errors += 1;
                    let response = Response::error(
                        None,
                        "?",
                        ErrorKind::Parse,
                        format!(
                            "request line exceeds {max_line} bytes without a newline; \
                             closing session"
                        ),
                    );
                    write_response(&mut writer, &response)?;
                    return Ok(stats);
                }
            }
        }
    }
}

/// [`respond_line`] for a raw pipe line: a trailing `\r` is dropped and
/// bytes that are not UTF-8 are decoded lossily, so they fail to parse.
fn respond_bytes<W: Write>(
    pool: &ServePool,
    line: &[u8],
    writer: &mut W,
    stats: &mut SessionStats,
) -> io::Result<()> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    respond_line(pool, &String::from_utf8_lossy(line), writer, stats)
}

/// Parse-submit-answer one request line (pipe transport).
fn respond_line<W: Write>(
    pool: &ServePool,
    line: &str,
    writer: &mut W,
    stats: &mut SessionStats,
) -> io::Result<()> {
    if line.trim().is_empty() {
        return Ok(());
    }
    stats.requests += 1;
    let response = match parse_request(line) {
        // `optimize-events` is the one op that answers with *multiple*
        // lines: it streams per-iteration progress, then closes with a
        // status line.
        Ok(env) => {
            if let Request::OptimizeEvents { job, since, follow } = env.request {
                return stream_job_events(pool, env.id, job, since, follow, writer, stats);
            }
            pool.run(env)
        }
        Err(message) => Response::error(None, "?", ErrorKind::Parse, message),
    };
    if !response.is_ok() {
        stats.errors += 1;
    }
    write_response(writer, &response)
}

/// Stream a job's progress: one JSON line per event (flagged
/// `"event":true`), then one closing status line without the flag.
///
/// With `follow`, the loop parks in bounded ticks until the job reaches a
/// terminal state, so a live tail ends by itself when the job completes,
/// is cancelled, or fails (a pool drain also terminates every job and
/// therefore every follower).
fn stream_job_events<W: Write>(
    pool: &ServePool,
    id: Option<u64>,
    job: u64,
    since: u64,
    follow: bool,
    writer: &mut W,
    stats: &mut SessionStats,
) -> io::Result<()> {
    let reply = |outcome| Response::untimed(id, "optimize-events", outcome);
    let Some(runner) = pool.jobs() else {
        stats.errors += 1;
        return write_response(writer, &reply(Outcome::jobs_disabled()));
    };
    let mut cursor = since as usize;
    loop {
        let Some((events, terminal)) = runner.events(job, cursor, follow, FOLLOW_TICK) else {
            stats.errors += 1;
            return write_response(writer, &reply(Outcome::unknown_job(job)));
        };
        for event in &events {
            writer.write_all(render_job_event(id, job, event).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        if !events.is_empty() {
            writer.flush()?;
        }
        cursor += events.len();
        if terminal || !follow {
            break;
        }
    }
    let report = runner.status(job).expect("a job that produced events has a status");
    write_response(writer, &reply(Outcome::job_status(&report)))
}

fn write_response<W: Write>(writer: &mut W, response: &Response) -> io::Result<()> {
    writer.write_all(response.render().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Transport-layer counters, shared between the reactor (sole writer)
/// and observers (`stats` responses via
/// [`ServePool::set_transport_stats`], [`TcpServer::live_sessions`],
/// tests).
#[derive(Debug, Default)]
pub struct TransportStats {
    accepted: AtomicU64,
    active: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    write_buffer_sheds: AtomicU64,
    write_buffered_peak: AtomicU64,
}

impl TransportStats {
    /// A consistent-enough copy of every counter (individually relaxed
    /// loads; the reactor is the only writer).
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_active: self.active.load(Ordering::Relaxed),
            connections_shed: self.shed.load(Ordering::Relaxed),
            connections_timed_out: self.timed_out.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            write_buffer_sheds: self.write_buffer_sheds.load(Ordering::Relaxed),
            write_buffered_peak: self.write_buffered_peak.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time read of [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections accepted from the listener (admitted or shed).
    pub connections_accepted: u64,
    /// Connections currently owned by the reactor.
    pub connections_active: u64,
    /// Connections refused by admission control (cap reached).
    pub connections_shed: u64,
    /// Connections closed by a deadline: idle or write-stall.
    pub connections_timed_out: u64,
    /// Payload bytes read from client sockets.
    pub bytes_read: u64,
    /// Payload bytes written to client sockets.
    pub bytes_written: u64,
    /// Connections dropped because buffering one more response would
    /// exceed `write_buffer_cap` (the client stopped reading).
    pub write_buffer_sheds: u64,
    /// High-water mark of total pending output across all connections,
    /// in bytes — the reactor's write-memory footprint.
    pub write_buffered_peak: u64,
}

/// The pool-worker → reactor completion channel: finished responses plus
/// a loopback wake byte so `poll(2)` returns promptly instead of waiting
/// out its tick.
struct Completions {
    queue: Mutex<Vec<(u64, Response)>>,
    wake: TcpStream,
}

impl Completions {
    /// Called on a pool worker thread; must stay cheap and non-blocking.
    fn push(&self, token: u64, response: Response) {
        if let Ok(mut queue) = self.queue.lock() {
            queue.push((token, response));
        }
        // One byte per completion; if the loopback buffer is full a wake
        // byte is already pending, so dropping this one loses nothing.
        let _ = (&self.wake).write(&[1u8]);
    }
}

/// A TCP front end over a shared [`ServePool`].
///
/// One reactor thread owns the nonblocking listener and every connection
/// state machine, multiplexed by `poll(2)`; pool workers do the compute
/// and hand responses back through a completion queue. [`TcpServer::stop`]
/// flips a flag and wakes the loop, so teardown completes within about
/// one tick even with clients parked mid-connection.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    /// Connected to the reactor's wake socket; `stop` writes one byte so
    /// the loop notices the flag without waiting out a poll tick.
    wake: TcpStream,
    reactor_thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl TcpServer {
    /// Bind `addr` and start the reactor in the background with default
    /// connection hygiene.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn start(pool: Arc<ServePool>, addr: &str) -> io::Result<TcpServer> {
        Self::start_with(pool, addr, ServerConfig::default())
    }

    /// Bind `addr` and start the reactor in the background.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn start_with(
        pool: Arc<ServePool>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<TcpServer> {
        let (reactor, wake_tx) = Reactor::bind(pool, addr, config)?;
        let addr = reactor.listener.local_addr()?;
        let shutdown = Arc::clone(&reactor.shutdown);
        let stats = Arc::clone(&reactor.ctx.stats);
        let reactor_thread = std::thread::Builder::new()
            .name("reecc-serve-reactor".to_string())
            .spawn(move || reactor.run())?;
        Ok(TcpServer {
            addr,
            shutdown,
            stats,
            wake: wake_tx,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently live session count (admitted connections the reactor
    /// still owns, polite sheds mid-goodbye included).
    pub fn live_sessions(&self) -> usize {
        self.stats.active.load(Ordering::Relaxed) as usize
    }

    /// The transport counter block (shared with the `stats` op).
    pub fn stats(&self) -> &Arc<TransportStats> {
        &self.stats
    }

    /// Stop the reactor: flag it, wake it, and join. Every connection is
    /// closed on the way out. Safe to call repeatedly.
    ///
    /// # Errors
    ///
    /// Returns the reactor's I/O error, if it died on one.
    pub fn stop(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1u8]);
        match self.reactor_thread.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked"))),
            None => Ok(()),
        }
    }

    /// Block this thread until the reactor exits (shutdown or I/O
    /// failure); used by `cli serve --addr`.
    ///
    /// # Errors
    ///
    /// Returns the reactor's I/O error, if it died on one.
    pub fn run_forever(mut self) -> io::Result<()> {
        match self.reactor_thread.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Why a connection exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// A normal admitted session.
    Serving,
    /// An over-cap connection kept only long enough to deliver its
    /// one-line `overloaded` shed notice.
    Shedding,
}

/// A request this connection is waiting on (at most one at a time, which
/// keeps responses in request order with no reorder buffer).
enum Active {
    /// Submitted to the worker pool; resolved by the completion queue.
    Pool,
    /// An `optimize-events` stream: drained nonblockingly every tick.
    Events { id: Option<u64>, job: u64, cursor: usize, follow: bool },
    /// An `optimize-result` with `"wait":true`: the job's terminal state
    /// is polled every tick instead of parking a thread.
    ResultWait { id: Option<u64>, job: u64, started: Instant },
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    mode: Mode,
    /// This tick's index into the `poll(2)` set; `None` for a connection
    /// admitted after the set was built.
    poll_slot: Option<usize>,
    /// Bytes read but not yet framed into a line.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scanned: usize,
    /// Complete lines awaiting dispatch (bounded by [`INBOX_MAX`]).
    inbox: VecDeque<String>,
    /// Pending output (bounded by `write_buffer_cap`).
    out: VecDeque<u8>,
    active: Option<Active>,
    /// The last read, completion or write progress: the idle clock.
    last_activity: Instant,
    /// The last instant the socket accepted bytes, or the instant `out`
    /// became nonempty: the write-stall clock, read while `out` is
    /// nonempty.
    stalled_since: Instant,
    /// The client half-closed; serve what was pipelined, then close.
    eof: bool,
    /// A final notice is queued; close once `out` drains.
    closing: bool,
    /// Condemned; closed at the end of its turn in the pass.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, mode: Mode, now: Instant) -> Conn {
        Conn {
            stream,
            mode,
            poll_slot: None,
            rbuf: Vec::new(),
            scanned: 0,
            inbox: VecDeque::new(),
            out: VecDeque::new(),
            active: None,
            last_activity: now,
            stalled_since: now,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Whether this connection has nothing left to do and can be closed.
    fn finished(&self) -> bool {
        (self.closing || self.eof)
            && self.out.is_empty()
            && self.inbox.is_empty()
            && self.active.is_none()
    }
}

/// Everything a per-connection step may touch besides the `Conn` itself;
/// a field of [`Reactor`] apart from `conns`, so that both can be
/// borrowed at once.
struct Ctx {
    config: ServerConfig,
    stats: Arc<TransportStats>,
    /// Total pending output across all connections, in bytes.
    buffered_total: usize,
    /// The tick's clock, read once when `poll(2)` returns; every deadline
    /// and activity stamp of the tick uses it.
    now: Instant,
}

/// The event loop: owns the listener, the wake socket, and every
/// connection; everything it does is nonblocking except the `poll(2)`
/// tick itself.
struct Reactor {
    pool: Arc<ServePool>,
    completions: Arc<Completions>,
    shutdown: Arc<AtomicBool>,
    listener: TcpListener,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    ctx: Ctx,
    /// Monotonic connection tokens; never reused, so a stale completion
    /// for a gone connection falls on the floor.
    next_token: u64,
    /// Connections in [`Mode::Serving`] (the admission-control count).
    serving: usize,
}

/// Accept-queue length requested for the listener (DESIGN §13.3). The
/// kernel clamps it to `net.core.somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

impl Reactor {
    /// Bind `addr` and assemble an idle reactor around it; also returns
    /// the write end of its self-wake pair.
    fn bind(
        pool: Arc<ServePool>,
        addr: &str,
        config: ServerConfig,
    ) -> io::Result<(Reactor, TcpStream)> {
        let listener = TcpListener::bind(addr)?;
        // std binds with a fixed backlog of 128. A storm the reactor is
        // not accepting (past the admission slack) waits in that queue,
        // and an overflowing queue falls back to SYN cookies, which can
        // lose a client's first bytes. Re-listening only resizes the
        // queue.
        sys::listen_backlog(raw_fd(&listener), LISTEN_BACKLOG)?;
        listener.set_nonblocking(true)?;
        // The self-wake pair: a loopback connection whose read end sits in
        // the reactor's poll set. Workers and `stop` write a byte to make
        // a parked `poll(2)` return immediately.
        let wake_listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (wake_rx, _) = wake_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let _ = wake_tx.set_nodelay(true);
        let stats = Arc::new(TransportStats::default());
        let _ = pool.set_transport_stats(Arc::clone(&stats));
        let completions =
            Arc::new(Completions { queue: Mutex::new(Vec::new()), wake: wake_tx.try_clone()? });
        let reactor = Reactor {
            pool,
            completions,
            shutdown: Arc::new(AtomicBool::new(false)),
            listener,
            wake_rx,
            conns: HashMap::new(),
            ctx: Ctx { config, stats, buffered_total: 0, now: Instant::now() },
            next_token: 1,
            serving: 0,
        };
        Ok((reactor, wake_tx))
    }
}

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> i32 {
    // Never polled: `sys::poll_fds` reports `Unsupported` first.
    -1
}

/// Would-block comes back as `WouldBlock` on Unix and `TimedOut` on
/// some platforms; treat both as "not ready".
fn is_wouldblock(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

impl Reactor {
    /// Admission slack: beyond `max_connections` the reactor still admits
    /// up to two accept bursts of [`Mode::Shedding`] connections (to say
    /// goodbye politely); past that, storms are hard-closed.
    fn slack_cap(&self) -> usize {
        self.ctx.config.max_connections.max(1) + 2 * self.ctx.config.accept_burst.max(1)
    }

    fn run(mut self) -> io::Result<()> {
        let tick = self.ctx.config.poll_interval.max(Duration::from_millis(1));
        let mut fds: Vec<PollFd> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            fds.clear();
            let accepting = self.conns.len() < self.slack_cap();
            fds.push(PollFd::new(
                raw_fd(&self.listener),
                if accepting { sys::POLLIN } else { 0 },
            ));
            fds.push(PollFd::new(raw_fd(&self.wake_rx), sys::POLLIN));
            for conn in self.conns.values_mut() {
                let mut events = 0i16;
                if !conn.closing && !conn.eof && conn.inbox.len() < INBOX_MAX {
                    events |= sys::POLLIN;
                }
                if !conn.out.is_empty() {
                    events |= sys::POLLOUT;
                }
                conn.poll_slot = Some(fds.len());
                fds.push(PollFd::new(raw_fd(&conn.stream), events));
            }
            sys::poll_fds(&mut fds, tick)?;
            self.ctx.now = Instant::now();
            if fds[1].ready(sys::POLLIN) {
                self.drain_wake();
            }
            self.drain_completions();
            if fds[0].ready(sys::POLLIN) {
                self.accept_burst();
            }
            self.pass(&fds);
        }
        self.teardown();
        Ok(())
    }

    /// The tick's one pass over the connections. Each connection in turn
    /// reads what `poll(2)` found ready, dispatches its inbox, advances a
    /// pending job op, flushes, has both deadlines checked, and is closed
    /// if it is dead or finished.
    fn pass(&mut self, fds: &[PollFd]) {
        let Reactor { pool, completions, conns, ctx, serving, .. } = self;
        conns.retain(|&token, conn| {
            if let Some(pfd) = conn.poll_slot.take().map(|i| fds[i]) {
                if pfd.ready(sys::POLLNVAL) {
                    conn.dead = true;
                } else if pfd.ready(sys::POLLIN | sys::POLLERR | sys::POLLHUP) {
                    // On hangup, read anyway: data may still be queued
                    // ahead of the EOF.
                    read_conn(conn, ctx);
                }
            }
            dispatch_conn(conn, token, ctx, pool, completions);
            poll_active(conn, ctx, pool);
            flush_conn(conn, ctx);
            check_deadlines(conn, ctx);
            if !conn.dead && !conn.finished() {
                return true;
            }
            ctx.buffered_total -= conn.out.len();
            if conn.mode == Mode::Serving {
                *serving -= 1;
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            ctx.stats.active.fetch_sub(1, Ordering::Relaxed);
            false
        });
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => break, // stop() dropped its end mid-teardown
                Ok(_) => continue,
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_completions(&mut self) {
        let batch: Vec<(u64, Response)> = {
            let mut queue = self.completions.queue.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for (token, response) in batch {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            if matches!(conn.active, Some(Active::Pool)) {
                conn.active = None;
            }
            conn.last_activity = self.ctx.now;
            enqueue_response(conn, &mut self.ctx, &response);
        }
    }

    fn accept_burst(&mut self) {
        if let Err(_msg) = failpoint::hit("transport.accept") {
            return; // injected accept fault: skip this tick's accepts
        }
        for _ in 0..self.ctx.config.accept_burst.max(1) {
            if self.conns.len() >= self.slack_cap() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends under storm: back off this tick
                // instead of killing the server.
                Err(_) => break,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let stats = &self.ctx.stats;
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            stats.shed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Best-effort, like the wake socket: without it Nagle holds back
        // the second write of a reply that wraps the output ring until
        // the client acknowledges the first.
        let _ = stream.set_nodelay(true);
        stats.active.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token;
        self.next_token += 1;
        let cap = self.ctx.config.max_connections.max(1);
        if self.serving < cap {
            self.serving += 1;
            self.conns.insert(token, Conn::new(stream, Mode::Serving, self.ctx.now));
            return;
        }
        // Over cap: one polite `overloaded` line through the same bounded
        // write path as any response, then close.
        stats.shed.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(stream, Mode::Shedding, self.ctx.now);
        conn.closing = true;
        let response = Response::error(
            None,
            "?",
            ErrorKind::Overloaded,
            format!("connection limit reached ({cap} live sessions); retry later"),
        );
        enqueue_response(&mut conn, &mut self.ctx, &response);
        self.conns.insert(token, conn);
    }

    fn teardown(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.ctx.stats.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.serving = 0;
        self.ctx.buffered_total = 0;
    }
}

/// Queue one already-rendered line (plus newline) on a connection's
/// bounded write buffer; sheds the connection if the line does not fit.
fn enqueue_line(conn: &mut Conn, ctx: &mut Ctx, line: &str) {
    if conn.dead {
        return;
    }
    let needed = line.len() + 1;
    let cap = ctx.config.write_buffer_cap.max(1024);
    if conn.out.len() + needed > cap {
        // The client is not draining responses; the buffer bound is the
        // memory contract, so the connection goes, not the bound.
        ctx.stats.write_buffer_sheds.fetch_add(1, Ordering::Relaxed);
        conn.dead = true;
        return;
    }
    if conn.out.is_empty() {
        conn.stalled_since = ctx.now;
    }
    conn.out.extend(line.as_bytes().iter().copied());
    conn.out.push_back(b'\n');
    ctx.buffered_total += needed;
    ctx.stats.write_buffered_peak.fetch_max(ctx.buffered_total as u64, Ordering::Relaxed);
}

fn enqueue_response(conn: &mut Conn, ctx: &mut Ctx, response: &Response) {
    enqueue_line(conn, ctx, &response.render());
}

/// Drain readable bytes into lines; bounded per tick by [`READ_ROUNDS`]
/// and by the inbox cap.
fn read_conn(conn: &mut Conn, ctx: &mut Ctx) {
    if conn.dead || conn.closing || conn.eof {
        return;
    }
    if failpoint::hit("transport.read").is_err() {
        conn.dead = true;
        return;
    }
    let max_line = ctx.config.max_line_bytes.max(1024);
    let mut chunk = [0u8; 4096];
    for _ in 0..READ_ROUNDS {
        if conn.inbox.len() >= INBOX_MAX {
            break;
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                ctx.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                conn.last_activity = ctx.now;
                conn.rbuf.extend_from_slice(&chunk[..n]);
                // Frame complete lines; scan only bytes not seen before.
                while let Some(at) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n')
                {
                    let nl = conn.scanned + at;
                    let line: Vec<u8> = conn.rbuf.drain(..=nl).collect();
                    conn.scanned = 0;
                    conn.inbox.push_back(String::from_utf8_lossy(&line[..nl]).into_owned());
                }
                conn.scanned = conn.rbuf.len();
                if conn.rbuf.len() > max_line {
                    conn.closing = true;
                    let response = Response::error(
                        None,
                        "?",
                        ErrorKind::Parse,
                        format!(
                            "request line exceeds {max_line} bytes without a newline; \
                             closing session"
                        ),
                    );
                    enqueue_response(conn, ctx, &response);
                    return;
                }
            }
            Err(e) if is_wouldblock(e.kind()) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Mid-frame disconnect or reset: nothing to answer.
                conn.dead = true;
                break;
            }
        }
    }
}

/// Pop and route inbox lines until something is in flight (or the inbox
/// is empty). At most one pool/job request per connection is pending at
/// a time; inline job-control ops answer immediately.
fn dispatch_conn(
    conn: &mut Conn,
    token: u64,
    ctx: &mut Ctx,
    pool: &ServePool,
    completions: &Arc<Completions>,
) {
    while conn.active.is_none() && !conn.dead && !conn.closing {
        let Some(line) = conn.inbox.pop_front() else { break };
        if line.trim().is_empty() {
            continue;
        }
        if failpoint::hit("session.read").is_err() {
            conn.dead = true;
            return;
        }
        let env = match parse_request(&line) {
            Ok(env) => env,
            Err(message) => {
                let response = Response::error(None, "?", ErrorKind::Parse, message);
                enqueue_response(conn, ctx, &response);
                continue;
            }
        };
        enum Route {
            Events { job: u64, since: u64, follow: bool },
            Wait { job: u64 },
            Inline,
            Pool,
        }
        let route = match &env.request {
            Request::OptimizeEvents { job, since, follow } => {
                Route::Events { job: *job, since: *since, follow: *follow }
            }
            Request::OptimizeResult { job, wait: true } => Route::Wait { job: *job },
            Request::OptimizeSubmit { .. }
            | Request::OptimizeStatus { .. }
            | Request::OptimizeCancel { .. }
            | Request::OptimizeResult { .. } => Route::Inline,
            _ => Route::Pool,
        };
        match route {
            Route::Events { job, since, follow } => {
                conn.active =
                    Some(Active::Events { id: env.id, job, cursor: since as usize, follow });
            }
            Route::Wait { job } => {
                conn.active = Some(Active::ResultWait { id: env.id, job, started: ctx.now });
            }
            // Job control is registry lookups; answering inline keeps it
            // independent of a full query queue (same rule as pipe mode).
            Route::Inline => {
                let response = pool.run(env);
                enqueue_response(conn, ctx, &response);
            }
            Route::Pool => {
                let id = env.id;
                let op = env.request.op_name();
                let cb = Arc::clone(completions);
                match pool.submit_with(env, Box::new(move |response| cb.push(token, response)))
                {
                    Ok(()) => conn.active = Some(Active::Pool),
                    Err(SubmitError::Overloaded { depth }) => {
                        let response = Response::error(
                            id,
                            op,
                            ErrorKind::Overloaded,
                            format!("request queue full (depth {depth}); retry later"),
                        );
                        enqueue_response(conn, ctx, &response);
                    }
                    Err(SubmitError::ShuttingDown) => {
                        let response = Response::error(
                            id,
                            op,
                            ErrorKind::Draining,
                            "pool is draining; request not accepted".to_string(),
                        );
                        enqueue_response(conn, ctx, &response);
                    }
                }
            }
        }
    }
}

/// Advance a connection's pending job op without blocking: pull whatever
/// `optimize-events` has buffered, or check whether a waited-on job went
/// terminal. Re-arms itself until done.
fn poll_active(conn: &mut Conn, ctx: &mut Ctx, pool: &ServePool) {
    if conn.dead {
        return;
    }
    let Some(active) = conn.active.take() else { return };
    match active {
        Active::Pool => conn.active = Some(Active::Pool),
        Active::Events { id, job, cursor, follow } => {
            let reply = |outcome| Response::untimed(id, "optimize-events", outcome);
            let Some(runner) = pool.jobs() else {
                enqueue_response(conn, ctx, &reply(Outcome::jobs_disabled()));
                return;
            };
            let Some((events, terminal)) = runner.events(job, cursor, false, Duration::ZERO)
            else {
                enqueue_response(conn, ctx, &reply(Outcome::unknown_job(job)));
                return;
            };
            for event in &events {
                enqueue_line(conn, ctx, &render_job_event(id, job, event));
                if conn.dead {
                    return; // buffer shed mid-stream
                }
            }
            let cursor = cursor + events.len();
            if terminal || !follow {
                if let Some(report) = runner.status(job) {
                    enqueue_response(conn, ctx, &reply(Outcome::job_status(&report)));
                }
            } else {
                conn.active = Some(Active::Events { id, job, cursor, follow });
            }
        }
        Active::ResultWait { id, job, started } => {
            let reply = |outcome| Response::untimed(id, "optimize-result", outcome);
            let Some(runner) = pool.jobs() else {
                enqueue_response(conn, ctx, &reply(Outcome::jobs_disabled()));
                return;
            };
            let Some(report) = runner.status(job) else {
                enqueue_response(conn, ctx, &reply(Outcome::unknown_job(job)));
                return;
            };
            let terminal = matches!(report.state, "completed" | "cancelled" | "failed");
            if terminal || ctx.now.saturating_duration_since(started) >= JOB_WAIT_TIMEOUT {
                enqueue_response(conn, ctx, &reply(Outcome::job_result(&report)));
            } else {
                conn.active = Some(Active::ResultWait { id, job, started });
            }
        }
    }
}

/// Write as much pending output as the socket will take; progress resets
/// the stall clock, and a drained `closing` connection is condemned.
fn flush_conn(conn: &mut Conn, ctx: &mut Ctx) {
    if conn.dead {
        return;
    }
    if !conn.out.is_empty() {
        if failpoint::hit("transport.write").is_err() {
            conn.dead = true;
            return;
        }
        loop {
            let (front, _) = conn.out.as_slices();
            if front.is_empty() {
                break;
            }
            match (&conn.stream).write(front) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out.drain(..n);
                    ctx.buffered_total -= n;
                    ctx.stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                    conn.stalled_since = ctx.now;
                    conn.last_activity = ctx.now;
                }
                Err(e) if is_wouldblock(e.kind()) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }
    if conn.out.is_empty() && conn.closing {
        let _ = conn.stream.shutdown(Shutdown::Write);
        // Discard any request bytes the client pipelined after the
        // goodbye line: closing a socket with unread data makes the
        // kernel send RST, which would destroy the in-flight notice
        // before a polite client could read it.
        let mut scratch = [0u8; 4096];
        while matches!((&conn.stream).read(&mut scratch), Ok(n) if n > 0) {}
        conn.dead = true;
    }
}

/// The two connection deadlines, checked every tick; both count
/// `connections_timed_out`.
///
/// * Write stall: pending output the socket took none of for
///   `write_timeout` means the client stopped reading, so the connection
///   is dropped without a notice it would not drain.
/// * Idle: a connection with nothing in flight, queued or buffered, quiet
///   for `idle_timeout`, gets an in-band `deadline-exceeded` notice and
///   closes. A job follower or a parked `wait` is not idle.
fn check_deadlines(conn: &mut Conn, ctx: &mut Ctx) {
    if conn.dead {
        return;
    }
    if !conn.out.is_empty() {
        if ctx.now.saturating_duration_since(conn.stalled_since) >= ctx.config.write_timeout {
            ctx.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            conn.dead = true;
        }
        return;
    }
    // Closing or half-closed connections are on their way out already.
    let quiet = !conn.closing && !conn.eof && conn.active.is_none() && conn.inbox.is_empty();
    let idle_for = ctx.now.saturating_duration_since(conn.last_activity);
    if !quiet || idle_for < ctx.config.idle_timeout {
        return;
    }
    ctx.stats.timed_out.fetch_add(1, Ordering::Relaxed);
    conn.closing = true;
    let response = Response::error(
        None,
        "?",
        ErrorKind::DeadlineExceeded,
        format!(
            "idle for {:?} (limit {:?}); closing session",
            idle_for, ctx.config.idle_timeout
        ),
    );
    enqueue_response(conn, ctx, &response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::protocol::Request;
    use reecc_core::{QueryEngine, SketchParams};
    use reecc_graph::generators::barabasi_albert;
    use std::io::BufReader;

    fn test_pool() -> Arc<ServePool> {
        let g = barabasi_albert(40, 2, 11);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
        )
        .unwrap();
        Arc::new(ServePool::new(
            Arc::new(engine),
            PoolConfig { threads: 2, queue_depth: 32, ..Default::default() },
        ))
    }

    fn quick_config() -> ServerConfig {
        ServerConfig { poll_interval: Duration::from_millis(10), ..ServerConfig::default() }
    }

    #[test]
    fn admitted_connections_get_tcp_nodelay() {
        let (mut reactor, _wake) =
            Reactor::bind(test_pool(), "127.0.0.1:0", quick_config()).unwrap();
        let _client = TcpStream::connect(reactor.listener.local_addr().unwrap()).unwrap();
        let stream = loop {
            match reactor.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if is_wouldblock(e.kind()) => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        assert!(!stream.nodelay().unwrap(), "accepted sockets start with Nagle on");
        reactor.admit(stream);
        let conn = reactor.conns.values().next().expect("the connection was admitted");
        assert!(conn.stream.nodelay().unwrap(), "admit must turn Nagle off");
    }

    #[test]
    fn pipe_session_reports_answers_and_inline_errors() {
        let pool = test_pool();
        let input = "\n{\"op\":\"ecc\",\"v\":3}\nnot json\n{\"op\":\"res\",\"u\":0,\"v\":5}\n";
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 3, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one response per non-blank request line: {text}");
        assert!(lines[0].contains("\"ok\":true") && lines[0].contains("\"op\":\"ecc\""));
        assert!(lines[1].contains("\"ok\":false") && lines[1].contains("\"error\":\"parse\""));
        assert!(lines[2].contains("\"ok\":true") && lines[2].contains("\"op\":\"res\""));
    }

    #[test]
    fn pipe_session_answers_a_non_utf8_line_with_a_parse_error() {
        let pool = test_pool();
        let mut input = b"{\"op\":\"ecc\",\"v\":3}\n".to_vec();
        input.extend_from_slice(b"\xff\xfe\n");
        input.extend_from_slice(b"{\"op\":\"res\",\"u\":0,\"v\":5}\n");
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, &input[..], &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 3, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"ok\":true") && lines[0].contains("\"op\":\"ecc\""));
        assert!(lines[1].contains("\"ok\":false") && lines[1].contains("\"error\":\"parse\""));
        assert!(lines[2].contains("\"ok\":true") && lines[2].contains("\"op\":\"res\""));
    }

    #[test]
    fn pipe_session_closes_on_an_overlong_unterminated_line() {
        let pool = test_pool();
        let input = vec![b'x'; 100 * 1024];
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, BufReader::new(&input[..]), &mut out).unwrap();
        assert_eq!(stats, SessionStats { requests: 1, errors: 1 });
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        assert!(lines[0].contains("\"error\":\"parse\""), "{}", lines[0]);
        assert!(lines[0].contains("without a newline"), "{}", lines[0]);
    }

    #[test]
    fn pipe_session_streams_job_events_then_a_status_line() {
        use crate::jobs::JobsConfig;
        use crate::live::LiveEngine;
        let _fp = failpoint::test_lock();
        let g = barabasi_albert(30, 2, 13);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
        )
        .unwrap();
        let pool = ServePool::with_live_and_jobs(
            LiveEngine::ephemeral(Arc::new(engine), None),
            PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
            Some(JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: None }),
        )
        .unwrap();
        // The runner starts empty, so the first submitted job has id 0.
        let input = "{\"op\":\"optimize-submit\",\"optimizer\":\"simple\",\"s\":1,\"k\":2,\
                     \"eps\":0.4,\"threads\":1,\"seed\":7}\n\
                     {\"op\":\"optimize-events\",\"job\":0,\"follow\":true,\"id\":9}\n\
                     {\"op\":\"optimize-events\",\"job\":99}\n";
        let mut out = Vec::new();
        let stats = serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1, "only the unknown-job probe errors");
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 1 submit ack + 2 event lines + 1 closing status + 1 unknown-job
        // error.
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[0].contains("\"op\":\"optimize-submit\""), "{}", lines[0]);
        assert!(lines[0].contains("\"state\":\"queued\""), "{}", lines[0]);
        for (i, line) in lines[1..3].iter().enumerate() {
            assert!(line.contains("\"event\":true"), "{line}");
            assert!(line.contains(&format!("\"iteration\":{i}")), "{line}");
            assert!(line.contains("\"id\":9"), "id must echo on event lines: {line}");
            assert!(line.contains("\"replayed\":false"), "{line}");
        }
        assert!(
            lines[3].contains("\"state\":\"completed\"") && !lines[3].contains("\"event\""),
            "closing line is a plain status: {}",
            lines[3]
        );
        assert!(
            lines[4].contains("\"ok\":false") && lines[4].contains("unknown job 99"),
            "{}",
            lines[4]
        );
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let pool = test_pool();
        let mut server =
            TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", quick_config()).unwrap();
        let addr = server.local_addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        writeln!(stream, "{{\"op\":\"ecc\",\"v\":1,\"id\":42}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true") && line.contains("\"id\":42"), "{line}");
        drop(stream);
        drop(reader);

        server.stop().unwrap();
        // After stop, new connections are no longer accepted (the listener
        // socket is closed when the accept loop returns).
        assert!(pool.served() >= 1);
        let _ = pool.run(crate::protocol::RequestEnvelope {
            id: None,
            deadline_ms: None,
            request: Request::Stats,
        });
    }

    #[test]
    fn tcp_serves_concurrent_clients() {
        let pool = test_pool();
        let server = TcpServer::start(Arc::clone(&pool), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u16)
            .map(|t| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut stream = stream;
                    let mut ok = 0;
                    for i in 0..5usize {
                        writeln!(
                            stream,
                            "{{\"op\":\"ecc\",\"v\":{}}}",
                            (t as usize * 7 + i) % 40
                        )
                        .unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if line.contains("\"ok\":true") {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn stop_closes_sessions_that_are_parked_mid_connection() {
        let pool = test_pool();
        let mut server =
            TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", quick_config()).unwrap();
        let addr = server.local_addr();

        // A client that connects, speaks once, then parks silently.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream.try_clone().unwrap();
        writeln!(writer, "{{\"op\":\"ecc\",\"v\":2}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        assert_eq!(server.live_sessions(), 1);

        // stop() must return promptly even though the client never
        // disconnects, and must take the session down with it.
        let started = Instant::now();
        server.stop().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stop must not wait for the client: {:?}",
            started.elapsed()
        );
        assert_eq!(server.live_sessions(), 0, "live sessions must be closed by stop");
        // The client's next read observes the close.
        let mut rest = String::new();
        let _ = reader.read_line(&mut rest);
        let eofed = rest.is_empty() || reader.read_line(&mut String::new()).unwrap_or(0) == 0;
        assert!(eofed, "client must see the connection close: {rest:?}");
    }

    #[test]
    fn idle_sessions_are_reaped_by_the_idle_timeout() {
        let pool = test_pool();
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(120),
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream);
        // Send nothing; the server must close us with an in-band notice.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("deadline-exceeded") && line.contains("idle"),
            "idle close must be announced: {line:?}"
        );
        let mut eof = String::new();
        assert_eq!(reader.read_line(&mut eof).unwrap(), 0, "then the socket closes");
    }

    #[test]
    fn a_client_that_stops_reading_is_dropped_at_the_write_timeout() {
        let pool = test_pool();
        let config = ServerConfig {
            write_timeout: Duration::from_millis(300),
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let cap = config.write_buffer_cap;
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // Pipeline `stats` requests (about 900 bytes of reply each) and read
        // nothing. While the socket takes every reply, a connection holds at
        // most one of them at a time; once the kernel's buffers are full,
        // replies pile up in the reactor. Stop as soon as they do, far below
        // `write_buffer_cap`.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut sent = 0u64;
        while server.stats().snapshot().write_buffered_peak < 8 * 1024 {
            assert!(Instant::now() < deadline, "replies never queued: {sent} requests sent");
            for _ in 0..16 {
                writeln!(writer, "{{\"op\":\"stats\"}}").unwrap();
            }
            sent += 16;
            while pool.served() < sent {
                assert!(Instant::now() < deadline, "{} of {sent} answered", pool.served());
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // No write progress from here on: the stall deadline drops the
        // connection, and the drop is a timeout, not a buffer shed.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.live_sessions() > 0 {
            assert!(Instant::now() < deadline, "stalled client was never dropped");
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.connections_timed_out, 1, "{snap:?}");
        assert_eq!(snap.write_buffer_sheds, 0, "{snap:?}");
        assert!(snap.write_buffered_peak < cap as u64, "{snap:?}");
        // Dropped without a notice: everything the client can still read
        // is `stats` replies (the last one may be cut short).
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut received = Vec::new();
        let _ = (&stream).read_to_end(&mut received);
        let text = String::from_utf8_lossy(&received);
        let mut lines: Vec<&str> = text.split('\n').collect();
        lines.pop(); // the bytes after the last newline
        assert!(!lines.is_empty());
        for line in lines {
            assert!(line.contains("\"op\":\"stats\""), "{line}");
        }
    }

    #[test]
    fn a_connection_waiting_on_a_job_result_is_not_idle() {
        use crate::jobs::JobsConfig;
        use crate::live::LiveEngine;
        let _fp = failpoint::test_lock();
        let g = barabasi_albert(30, 2, 13);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 5, ..Default::default() },
        )
        .unwrap();
        let pool = ServePool::with_live_and_jobs(
            LiveEngine::ephemeral(Arc::new(engine), None),
            PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
            Some(JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: None }),
        )
        .unwrap();
        let idle_timeout = Duration::from_millis(150);
        let config = ServerConfig {
            idle_timeout,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::new(pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Three iterations of 150 ms each: the wait outlives the idle
        // timeout about three times over.
        failpoint::configure("job.iterate", failpoint::Action::Delay(150), None);
        let started = Instant::now();
        writeln!(
            writer,
            "{{\"op\":\"optimize-submit\",\"optimizer\":\"simple\",\"s\":1,\"k\":3,\
             \"eps\":0.4,\"threads\":1,\"seed\":7,\"id\":1}}\n\
             {{\"op\":\"optimize-result\",\"job\":0,\"wait\":true,\"id\":2}}"
        )
        .unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        let mut result = String::new();
        reader.read_line(&mut result).unwrap();
        let waited = started.elapsed();
        failpoint::clear("job.iterate");
        assert!(
            ack.contains("\"op\":\"optimize-submit\"") && ack.contains("\"ok\":true"),
            "{ack}"
        );
        assert!(
            result.contains("\"op\":\"optimize-result\"")
                && result.contains("\"id\":2")
                && result.contains("\"state\":\"completed\""),
            "a parked wait must get its result, not the idle notice: {result}"
        );
        assert!(
            waited >= 2 * idle_timeout,
            "the wait must outlive the idle timeout: {waited:?}"
        );
        // Once the answer is out the connection is idle, and the rule applies.
        let mut notice = String::new();
        reader.read_line(&mut notice).unwrap();
        assert!(notice.contains("deadline-exceeded") && notice.contains("idle"), "{notice}");
    }

    #[test]
    fn connections_past_the_cap_are_shed_with_an_overloaded_line() {
        let pool = test_pool();
        let config = ServerConfig {
            max_connections: 1,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        // First client occupies the single slot (and proves it works).
        let first = TcpStream::connect(addr).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut first_writer = first;
        writeln!(first_writer, "{{\"op\":\"ecc\",\"v\":0}}").unwrap();
        let mut line = String::new();
        first_reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");

        // Second client is shed with a structured error, then closed.
        let second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut second_reader = BufReader::new(second);
        let mut shed = String::new();
        second_reader.read_line(&mut shed).unwrap();
        assert!(
            shed.contains("\"error\":\"overloaded\"") && shed.contains("connection limit"),
            "{shed:?}"
        );
        let mut eof = String::new();
        assert_eq!(second_reader.read_line(&mut eof).unwrap(), 0);
    }

    #[test]
    fn oversized_request_lines_error_the_session_instead_of_growing_forever() {
        let pool = test_pool();
        let config = ServerConfig {
            max_line_bytes: 1024,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // 8 KiB of newline-free garbage.
        let blob = vec![b'x'; 8 * 1024];
        writer.write_all(&blob).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("exceeds") && line.contains("\"error\":\"parse\""), "{line:?}");
    }
}
