//! Child processes of the `reecc` binary: spawn, stop with SIGTERM, and
//! reap with `wait4(2)` so each child's own peak resident set is known.
//! Linux only (the benchmark also reads `/proc`).

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[allow(dead_code)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB. Only `maxrss` is read.
#[repr(C)]
#[allow(dead_code)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or 128 + signal number.
    pub code: i32,
    /// Peak resident set of the child, in KiB.
    pub maxrss_kib: u64,
}

/// A running `reecc` child. Dropping it kills and reaps the process, so no
/// error path leaves one behind.
pub struct Proc {
    pid: i32,
    exit: Option<Exit>,
    pub started: Instant,
    pub stderr: PathBuf,
}

impl Proc {
    /// Start `bin args…` with stdout discarded and stderr sent to a file in
    /// `dir` named after `tag`, on CPU `cpu` alone when one is given.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        dir: &Path,
        tag: &str,
        cpu: Option<usize>,
    ) -> Result<Proc, String> {
        let stderr = dir.join(format!("{tag}.err"));
        let err = File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(Stdio::null()).stderr(err);
        if let Some(cpu) = cpu {
            // SAFETY: the closure runs in the child between fork and exec; it
            // makes one system call and allocates nothing.
            unsafe {
                cmd.pre_exec(move || {
                    if crate::cpu::pin_thread(cpu) {
                        Ok(())
                    } else {
                        Err(std::io::Error::last_os_error())
                    }
                });
            }
        }
        let started = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
        // The child is reaped by `wait4` below, never through `Child`.
        drop(child);
        Ok(Proc { pid, exit: None, started, stderr })
    }

    pub fn pid(&self) -> i32 {
        self.pid
    }

    pub fn signal(&self, sig: i32) {
        if self.exit.is_none() {
            // SAFETY: `kill` has no memory-safety preconditions; the pid is
            // our own unreaped child, so it cannot name another process.
            unsafe {
                kill(self.pid, sig);
            }
        }
    }

    fn try_reap(&mut self, options: i32) -> Option<Exit> {
        if let Some(e) = self.exit {
            return Some(e);
        }
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: both out-pointers refer to live, properly sized locals
        // (`Rusage` matches the 64-bit Linux layout), and `pid` is our own
        // child, reaped at most once because `exit` is recorded below.
        let r = unsafe { wait4(self.pid, &mut status, options, &mut ru) };
        if r != self.pid {
            return None;
        }
        let code =
            if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
        let exit = Exit { code, maxrss_kib: ru.maxrss.max(0) as u64 };
        self.exit = Some(exit);
        Some(exit)
    }

    /// The exit, if the child has already ended.
    pub fn exited(&mut self) -> Option<Exit> {
        self.try_reap(WNOHANG)
    }

    /// Wait up to `limit` for the child to exit; kill it after that.
    pub fn wait(&mut self, limit: Duration) -> Result<Exit, String> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(e) = self.try_reap(WNOHANG) {
                return Ok(e);
            }
            if Instant::now() >= deadline {
                self.signal(SIGKILL);
                self.try_reap(0);
                return Err(format!("process {} did not exit within {limit:?}", self.pid));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.exit.is_none() {
            self.signal(SIGKILL);
            self.try_reap(0);
        }
    }
}

/// Run `reecc args…` to completion (at most `limit`), returning its wall
/// time and exit. A nonzero exit is an error carrying the child's stderr.
pub fn run_to_end(
    bin: &Path,
    args: &[String],
    dir: &Path,
    tag: &str,
    limit: Duration,
) -> Result<(Duration, Exit), String> {
    let mut p = Proc::spawn(bin, args, dir, tag, None)?;
    let exit = p.wait(limit)?;
    let wall = p.started.elapsed();
    if exit.code != 0 {
        return Err(format!(
            "reecc {} exited {}: {}",
            args.join(" "),
            exit.code,
            p.stderr_text()
        ));
    }
    Ok((wall, exit))
}
