//! Deterministic failpoint injection for chaos testing.
//!
//! A failpoint is a named site in serving code (`worker.compute`,
//! `snapshot.write`, …) where a test — or an operator reproducing an
//! incident — can force a panic, a delay, or an injected I/O error on
//! demand. Sites are compiled in unconditionally but cost one relaxed
//! atomic load when nothing is armed, so production traffic never pays
//! for the instrumentation.
//!
//! Activation is either programmatic ([`configure`] / [`clear`] /
//! [`reset`]) or via the `REECC_FAILPOINTS` environment variable, read
//! once on first use:
//!
//! ```text
//! REECC_FAILPOINTS='worker.compute=panic*1;snapshot.load=io-error*2'
//! ```
//!
//! Grammar: `site=action[;site=action…]` where `action` is one of
//! `panic`, `delay(MS)`, `io-error`, or `off`, optionally suffixed with
//! `*N` to auto-disarm after `N` firings (`panic*1` fires exactly once).
//!
//! Naming convention (documented in DESIGN.md §8): `<component>.<operation>`,
//! lower-case, dot-separated. Current sites:
//!
//! * `worker.compute` — inside a pool worker, before a request executes.
//! * `snapshot.write` — between a snapshot's temp-file write and rename.
//! * `snapshot.load` — before a snapshot file is opened for reading.
//! * `cache.insert` — before a computed result is inserted in the cache.
//! * `session.read` — before each request line is dispatched in a
//!   session (pipe or TCP); an injected error drops the session.
//! * `transport.accept` — in the reactor before a batch of `accept(2)`
//!   calls; an injected error skips that tick's accepts.
//! * `transport.read` — in the reactor before a connection's socket is
//!   read; an injected error drops the connection.
//! * `transport.write` — in the reactor before a connection's pending
//!   output is flushed; an injected error drops the connection.
//! * `wal.append` — before a mutation record is appended to the
//!   write-ahead edge log (the ack-blocking durability point).
//! * `wal.replay` — before each record is applied during startup replay.
//! * `epoch.swap` — after a re-sketch epoch is durably written, before
//!   the `CURRENT` pointer flips to it.
//! * `resketch.build` — at the start of a background re-sketch build.
//! * `job.iterate` — at the top of every background-optimization
//!   iteration observer, before the checkpoint append.
//! * `job.checkpoint` — before each checkpoint record is appended to the
//!   job's `.reeccjob` file (the durability point of a greedy step).
//!
//! The contract at each site is [`hit`]: `Ok(())` when disarmed or after
//! an injected delay, `Err(message)` for an injected I/O error (the site
//! maps it into its native error type), and a real `panic!` for `panic`
//! actions — exactly the failure the surrounding containment layer must
//! absorb.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic with a message naming the site.
    Panic,
    /// Sleep for this many milliseconds, then continue normally.
    Delay(u64),
    /// Return an injected error from [`hit`].
    IoError,
}

#[derive(Debug)]
struct Site {
    action: Option<Action>,
    /// Firings left before auto-disarm; `None` = unlimited.
    remaining: Option<u64>,
    /// Total times this site fired an action (for tests / diagnostics).
    fired: u64,
}

/// Number of currently armed sites; the fast path is `ARMED == 0`.
///
/// Starts at the `UNINITIALIZED` sentinel so the very first [`hit`] in a
/// process takes the slow path and forces [`registry`] to read
/// `REECC_FAILPOINTS` — otherwise an env-only arming would be invisible
/// to the `== 0` short-circuit. After initialization it holds the real
/// armed-site count.
static ARMED: AtomicUsize = AtomicUsize::new(UNINITIALIZED);

const UNINITIALIZED: usize = usize::MAX;

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        let mut armed = 0;
        if let Ok(spec) = std::env::var("REECC_FAILPOINTS") {
            match parse_spec(&spec) {
                Ok(entries) => {
                    for entry in entries {
                        if entry.action.is_some() {
                            armed += 1;
                        }
                        map.insert(
                            entry.site,
                            Site { action: entry.action, remaining: entry.count, fired: 0 },
                        );
                    }
                }
                Err(e) => eprintln!("REECC_FAILPOINTS ignored: {e}"),
            }
        }
        ARMED.store(armed, Ordering::SeqCst);
        Mutex::new(map)
    })
}

/// One parsed `site=action[*N]` clause of a `REECC_FAILPOINTS` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecEntry {
    /// The failpoint site name.
    pub site: String,
    /// The armed action; `None` for `off`.
    pub action: Option<Action>,
    /// The `*N` auto-disarm count; `None` = unlimited.
    pub count: Option<u64>,
}

/// Parse a `site=action[;site=action…]` spec.
///
/// # Errors
///
/// A human-readable message naming the malformed clause.
pub fn parse_spec(spec: &str) -> Result<Vec<SpecEntry>, String> {
    let mut out = Vec::new();
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (site, action_str) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause {clause:?} is not site=action"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("clause {clause:?} has an empty site name"));
        }
        let action_str = action_str.trim();
        let (action_str, remaining) = match action_str.split_once('*') {
            Some((a, n)) => {
                let n: u64 =
                    n.trim().parse().map_err(|_| format!("bad repeat count in {clause:?}"))?;
                (a.trim(), Some(n))
            }
            None => (action_str, None),
        };
        let action = match action_str {
            "off" => None,
            "panic" => Some(Action::Panic),
            "io-error" => Some(Action::IoError),
            other => {
                let ms = other
                    .strip_prefix("delay(")
                    .and_then(|r| r.strip_suffix(')'))
                    .and_then(|ms| ms.trim().parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!(
                            "unknown action {other:?} in {clause:?} \
                             (known: panic, delay(MS), io-error, off)"
                        )
                    })?;
                Some(Action::Delay(ms))
            }
        };
        out.push(SpecEntry { site: site.to_string(), action, count: remaining });
    }
    Ok(out)
}

/// Arm `site` with `action`, auto-disarming after `count` firings when
/// given. Replaces any previous configuration for the site.
pub fn configure(site: &str, action: Action, count: Option<u64>) {
    let mut map = registry().lock().expect("failpoint registry poisoned");
    let was_armed = map.get(site).is_some_and(|s| s.action.is_some());
    let arming = count != Some(0);
    map.insert(
        site.to_string(),
        Site { action: arming.then_some(action), remaining: count, fired: 0 },
    );
    match (was_armed, arming) {
        (false, true) => {
            ARMED.fetch_add(1, Ordering::SeqCst);
        }
        (true, false) => {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
        _ => {}
    }
}

/// Disarm `site` (its `fired` counter is preserved).
pub fn clear(site: &str) {
    let mut map = registry().lock().expect("failpoint registry poisoned");
    if let Some(s) = map.get_mut(site) {
        if s.action.take().is_some() {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Disarm every site and reset all counters.
pub fn reset() {
    let mut map = registry().lock().expect("failpoint registry poisoned");
    let armed = map.values().filter(|s| s.action.is_some()).count();
    map.clear();
    ARMED.fetch_sub(armed, Ordering::SeqCst);
}

/// Serializes this crate's unit tests that arm a shared site such as
/// `job.iterate` (the registry is process-global and tests run
/// concurrently); poison-tolerant, so one failed test does not fail the
/// rest.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many times `site` has fired an armed action.
pub fn fired(site: &str) -> u64 {
    registry().lock().expect("failpoint registry poisoned").get(site).map_or(0, |s| s.fired)
}

/// Evaluate the failpoint at `site`.
///
/// Disarmed (the common case): returns `Ok(())` after a single relaxed
/// atomic load. Armed: `Panic` panics, `Delay` sleeps then returns
/// `Ok(())`, `IoError` returns `Err` with a message naming the site.
///
/// # Errors
///
/// `Err(message)` only for an armed `io-error` action; the call site maps
/// it into its native error type.
#[inline]
pub fn hit(site: &str) -> Result<(), String> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Result<(), String> {
    let action = {
        let mut map = registry().lock().expect("failpoint registry poisoned");
        let Some(s) = map.get_mut(site) else { return Ok(()) };
        let Some(action) = s.action else { return Ok(()) };
        s.fired += 1;
        if let Some(remaining) = &mut s.remaining {
            *remaining -= 1;
            if *remaining == 0 {
                s.action = None;
                ARMED.fetch_sub(1, Ordering::SeqCst);
            }
        }
        action
    };
    match action {
        Action::Panic => panic!("failpoint {site} triggered (injected panic)"),
        Action::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(())
        }
        Action::IoError => Err(format!("failpoint {site} injected i/o error")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own site names: the registry is process-global
    // and tests run concurrently.

    #[test]
    fn disarmed_site_is_a_noop() {
        assert_eq!(hit("fp.test.noop"), Ok(()));
        assert_eq!(fired("fp.test.noop"), 0);
    }

    #[test]
    fn io_error_counts_down_and_disarms() {
        configure("fp.test.countdown", Action::IoError, Some(2));
        assert!(hit("fp.test.countdown").is_err());
        assert!(hit("fp.test.countdown").is_err());
        assert_eq!(hit("fp.test.countdown"), Ok(()), "count exhausted; site disarmed");
        assert_eq!(fired("fp.test.countdown"), 2);
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        configure("fp.test.panic", Action::Panic, Some(1));
        let err = std::panic::catch_unwind(|| {
            let _ = hit("fp.test.panic");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("fp.test.panic"), "{msg}");
        assert_eq!(hit("fp.test.panic"), Ok(()), "one-shot panic disarms itself");
    }

    #[test]
    fn delay_action_sleeps_then_continues() {
        configure("fp.test.delay", Action::Delay(30), Some(1));
        let started = std::time::Instant::now();
        assert_eq!(hit("fp.test.delay"), Ok(()));
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn clear_disarms_without_firing() {
        configure("fp.test.clear", Action::IoError, None);
        clear("fp.test.clear");
        assert_eq!(hit("fp.test.clear"), Ok(()));
    }

    #[test]
    fn spec_grammar_round_trips() {
        let entries =
            parse_spec("a.b=panic*1; c.d = delay(250) ;e.f=io-error;g.h=off").unwrap();
        let entry = |site: &str, action, count| SpecEntry { site: site.into(), action, count };
        assert_eq!(
            entries,
            vec![
                entry("a.b", Some(Action::Panic), Some(1)),
                entry("c.d", Some(Action::Delay(250)), None),
                entry("e.f", Some(Action::IoError), None),
                entry("g.h", None, None),
            ]
        );
        assert!(parse_spec("nosuchgrammar").is_err());
        assert!(parse_spec("a=frob").is_err());
        assert!(parse_spec("a=panic*x").is_err());
        assert!(parse_spec("=panic").is_err());
        assert!(parse_spec("").unwrap().is_empty());
    }
}
