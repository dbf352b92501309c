//! Thin std-only OS shim for the event-loop transport.
//!
//! The workspace is offline, so there is no `libc` crate; the reactor
//! ([`crate::server`]) needs exactly three things the standard library
//! does not expose, and this module declares them directly against the
//! C runtime that `std` already links:
//!
//! * [`poll_fds`] — `poll(2)` over raw fds harvested with
//!   `std::os::fd::AsRawFd`, the readiness multiplexer the reactor is
//!   built on;
//! * [`term_flag`] — a `signal(2)`-installed SIGTERM/SIGINT handler that
//!   flips one process-global atomic, so `reecc serve --addr` can turn a
//!   termination signal into a graceful drain instead of an abrupt exit;
//! * [`raise_nofile_limit`] — `setrlimit(2)` for `RLIMIT_NOFILE`, used by
//!   the connection-storm tests to hold >1k sockets in one process;
//! * [`listen_backlog`] — `listen(2)` re-issued on a bound listener, which
//!   resizes its accept queue past the fixed backlog `std` binds with.
//!
//! Everything is best-effort on non-Unix targets: [`poll_fds`] reports
//! `Unsupported` (the TCP event loop needs a Unix-ish platform; pipe mode
//! is unaffected) and the others quietly do nothing.

use std::io;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Readiness: fd has data to read (or a pending accept).
pub const POLLIN: i16 = 0x001;
/// Readiness: fd can accept writes without blocking.
pub const POLLOUT: i16 = 0x004;
/// Condition: fd error (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Condition: peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// Condition: fd not open (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`, laid out exactly as `poll(2)` expects.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The raw file descriptor (negative entries are ignored by the
    /// kernel, which is how absent slots are encoded).
    pub fd: i32,
    /// Requested readiness events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported readiness, valid after [`poll_fds`] returns.
    pub revents: i16,
}

impl PollFd {
    /// A pollfd watching `fd` for `events`.
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether any of `mask` was reported back by the kernel.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the kernel reported an error/hangup/invalid condition.
    pub fn failed(&self) -> bool {
        self.ready(POLLERR | POLLHUP | POLLNVAL)
    }
}

#[cfg(unix)]
mod imp {
    use super::PollFd;
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[cfg(target_os = "macos")]
    type Nfds = u32;
    #[cfg(not(target_os = "macos"))]
    type Nfds = core::ffi::c_ulong;

    type RLimVal = u64;

    #[repr(C)]
    struct RLimit {
        cur: RLimVal,
        max: RLimVal,
    }

    #[cfg(target_os = "macos")]
    const RLIMIT_NOFILE: i32 = 8;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_NOFILE: i32 = 7;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn listen(sockfd: i32, backlog: i32) -> i32;
    }

    pub fn listen_backlog(fd: i32, backlog: i32) -> io::Result<()> {
        // SAFETY: `listen` takes two plain integers and touches no caller
        // memory; a bad fd is reported through the return value.
        if unsafe { listen(fd, backlog) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `PollFd` is `repr(C)` with the exact pollfd layout, the
        // slice gives a valid pointer/length pair, and the kernel writes
        // only `revents` within it.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            // A signal landed mid-poll: report "nothing ready"; the
            // caller's next loop iteration observes whatever the signal
            // flipped (e.g. the term flag).
            return Ok(0);
        }
        Err(err)
    }

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn term_flag() -> &'static AtomicBool {
        // SAFETY: `signal` with a plain fn pointer is the documented
        // installation API; the handler does one atomic store.
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
        &TERM
    }

    pub fn raise_nofile_limit(min: u64) -> u64 {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: plain out-param struct calls against the C runtime.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
                return 0;
            }
            if lim.cur >= min {
                return lim.cur;
            }
            let want = RLimit { cur: min.min(lim.max), max: lim.max };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return want.cur;
            }
            lim.cur
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::PollFd;
    use std::io;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    pub fn poll_fds(_fds: &mut [PollFd], _timeout: Duration) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the event-loop transport needs poll(2); use pipe mode on this platform",
        ))
    }

    static TERM: AtomicBool = AtomicBool::new(false);

    pub fn term_flag() -> &'static AtomicBool {
        &TERM
    }

    pub fn raise_nofile_limit(_min: u64) -> u64 {
        0
    }

    pub fn listen_backlog(_fd: i32, _backlog: i32) -> io::Result<()> {
        Ok(())
    }
}

/// Wait until any watched fd is ready or `timeout` elapses; returns the
/// number of entries with nonzero `revents`.
///
/// A signal interrupting the wait is reported as zero ready fds, not an
/// error, so reactor loops stay signal-transparent.
///
/// # Errors
///
/// The raw OS error from `poll(2)`, or `Unsupported` on non-Unix targets.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    imp::poll_fds(fds, timeout)
}

/// Install (idempotently) a SIGTERM/SIGINT handler that flips the
/// returned flag, and return it.
///
/// The flag is process-global: `reecc serve --addr` polls it to turn a
/// termination signal into stop-accept → drain → one-line summary.
pub fn term_flag() -> &'static AtomicBool {
    imp::term_flag()
}

/// Best-effort raise of the open-file soft limit to at least `min`
/// (capped at the hard limit); returns the resulting soft limit, or 0 if
/// it could not be read. Storm tests call this so >1k sockets fit.
pub fn raise_nofile_limit(min: u64) -> u64 {
    imp::raise_nofile_limit(min)
}

/// Re-issue `listen(2)` on the already-listening socket `fd` with a new
/// accept-queue length. Linux resizes the queue in place (the kernel
/// clamps `backlog` to `net.core.somaxconn`); nothing else about the
/// socket changes. A no-op returning `Ok` on non-Unix targets.
///
/// # Errors
///
/// The raw OS error from `listen(2)` (e.g. `EBADF` for a bad fd).
pub fn listen_backlog(fd: i32, backlog: i32) -> io::Result<()> {
    imp::listen_backlog(fd, backlog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[cfg(unix)]
    use std::os::fd::AsRawFd;

    #[cfg(unix)]
    #[test]
    fn poll_times_out_on_a_silent_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        let n = poll_fds(&mut fds, Duration::from_millis(40)).unwrap();
        assert_eq!(n, 0, "no data was sent");
        assert!(started.elapsed() >= Duration::from_millis(30));
        drop(client);
    }

    #[cfg(unix)]
    #[test]
    fn poll_reports_readable_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        let mut fds = [PollFd::new(server.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN), "revents {:#x}", fds[0].revents);
    }

    #[cfg(unix)]
    #[test]
    fn listen_backlog_resizes_a_bound_listener_and_rejects_bad_fds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listen_backlog(listener.as_raw_fd(), 4096).unwrap();
        // Still a working listener afterwards.
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        listener.accept().unwrap();
        assert!(listen_backlog(-1, 4096).is_err());
    }

    #[test]
    fn raise_nofile_limit_is_monotone() {
        let now = raise_nofile_limit(64);
        if now > 0 {
            assert!(raise_nofile_limit(64) >= 64);
        }
    }

    #[test]
    fn term_flag_is_stable() {
        let a = term_flag() as *const _;
        let b = term_flag() as *const _;
        assert_eq!(a, b, "repeated installs return the same flag");
    }
}
