//! NDJSON over TCP: a connection for calls, and a closed-loop client that
//! keeps one request in flight on each of several connections, one thread
//! per connection.
//!
//! Sockets are nonblocking and waits go through `ppoll(2)`, whose timeout
//! has microsecond resolution; a socket read timeout would round every wait
//! up to a scheduler tick and make the generator late by milliseconds.
//!
//! The client acknowledges every read at once (`TCP_QUICKACK`). The server
//! does not set `TCP_NODELAY` on its sockets, and a reply that wraps its
//! output ring leaves in two writes; Nagle's algorithm holds the second
//! until the first is acknowledged. A delayed acknowledgement would hold it
//! until the 40 ms delayed-ACK timer fires, since a closed-loop client sends
//! nothing before the whole reply is in. With the immediate acknowledgement
//! a split reply costs one extra loopback round trip.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), start: 0 })
    }

    /// Block until the socket is ready for `events` or `timeout` passes.
    fn wait(&self, events: i16, timeout: Duration) {
        let mut fd = PollFd { fd: self.stream.as_raw_fd(), events, revents: 0 };
        let ts =
            Timespec { sec: timeout.as_secs() as i64, nsec: timeout.subsec_nanos() as i64 };
        // SAFETY: `fd` and `ts` are live locals of the layouts ppoll expects
        // on 64-bit Linux, nfds is 1, and a null sigmask is allowed.
        unsafe {
            ppoll(&mut fd, 1, &ts, std::ptr::null());
        }
    }

    /// A complete line already buffered, if any.
    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf[self.start..].iter().position(|&b| b == b'\n')?;
        let line =
            String::from_utf8_lossy(&self.buf[self.start..self.start + pos]).into_owned();
        self.start += pos + 1;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Some(line)
    }

    /// Acknowledge what has been read now rather than with the next
    /// request. The option is not sticky (TCP goes back to delaying
    /// acknowledgements on its own), so it is set again after every read.
    fn ack_now(&self) {
        let one: i32 = 1;
        // SAFETY: the fd is this stream's open socket and `one` is a live
        // i32 whose size is passed as the option length.
        unsafe {
            setsockopt(self.stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
        }
    }

    /// Read what the socket holds now; `false` when it holds nothing.
    fn fill(&mut self) -> Result<bool, String> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 1 << 15];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => {
                    self.ack_now();
                    self.buf.extend_from_slice(&chunk[..k]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Next complete line, waiting at most `timeout`; `None` on timeout.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<String>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            if self.fill()? {
                continue;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.wait(POLLIN, left);
        }
    }

    /// Write as much of `out[*done..]` as the socket takes now.
    fn flush_some(&mut self, out: &[u8], done: &mut usize) -> Result<(), String> {
        while *done < out.len() {
            match self.stream.write(&out[*done..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => *done += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let mut done = 0;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            self.flush_some(&bytes, &mut done)?;
            if done == bytes.len() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("send stalled".into());
            }
            self.wait(POLLOUT, Duration::from_millis(10));
        }
    }

    /// Send one line and wait (up to `limit`) for its reply.
    pub fn call(&mut self, line: &str, limit: Duration) -> Result<String, String> {
        self.send(line)?;
        self.recv(limit)?.ok_or_else(|| format!("no reply to {line} within {limit:?}"))
    }
}

/// One closed-loop call: the reply (`None` when none came within the
/// limit, or the connection failed) and the time from send to reply.
pub struct Call {
    pub reply: Option<String>,
    pub latency: Duration,
}

/// Send each connection's lines in order, each as soon as the reply to the
/// one before it has arrived, all connections at once (one thread each, on
/// CPU `cpu` alone when one is given). After a failure a connection answers
/// the rest of its lines with `None`.
pub fn closed_loop(
    conns: &mut [Conn],
    lines: &[Vec<String>],
    limit: Duration,
    cpu: Option<usize>,
) -> Vec<Vec<Call>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lines)
            .map(|(c, ls)| {
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        crate::cpu::pin_thread(cpu);
                    }
                    let mut alive = true;
                    ls.iter()
                        .map(|line| {
                            let t = Instant::now();
                            let reply = if alive { c.call(line, limit).ok() } else { None };
                            alive = reply.is_some();
                            Call { reply, latency: t.elapsed() }
                        })
                        .collect::<Vec<Call>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}
