//! Fork-join over owned parts: the one place the workspace splits a
//! data-parallel loop over threads.
//!
//! Every threaded loop in the pipeline (the sketch's row solves, the
//! query engine's source batches, APPROXCH's full-`n` sweeps, the
//! candidate screen and the candidate evaluator) cuts its input into
//! parts itself, hands them to [`fork_join`], and reads the results back
//! in part order. The cut only decides which thread computes a value,
//! never its bits: each site keeps its own split and its own work floor,
//! and every part is computed by the same sequential code whatever
//! thread runs it.

use std::panic::resume_unwind;
use std::thread;

/// Resolve a user-facing `threads` knob to a concrete worker count: `0`
/// means "use available hardware parallelism", falling back to 1 when the
/// platform cannot report it; any other value is taken as-is.
///
/// This is the single source of truth for what `threads: 0` means — the
/// sketch build, APPROXCH's sweeps, the optimizers, the CLI and
/// `reecc-serve`'s worker pool all resolve through here. Asking the OS
/// costs about 20 µs on a 2-vCPU Linux VM, so hot paths resolve once and
/// keep the answer.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Workers for `jobs` independent jobs: [`resolve_threads`]`(threads)`,
/// at most one per job and at least one.
pub fn worker_count(threads: usize, jobs: usize) -> usize {
    resolve_threads(threads).clamp(1, jobs.max(1))
}

/// Run `f` on every part and return the results in part order.
///
/// The first part runs on the calling thread and every other part on a
/// scoped thread of its own, so one part spawns nothing and zero parts
/// return an empty `Vec`. Parts are owned values — index ranges, disjoint
/// `&mut` slices, or both zipped — so a caller that allocates its
/// workers' scratch hands each part its own slice and no worker
/// allocates. If parts panic, the first panicking part in part order is
/// re-raised on the calling thread with its original payload, once every
/// part has finished.
pub fn fork_join<P, R, F>(parts: impl IntoIterator<Item = P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return Vec::new() };
    let Some(second) = parts.next() else { return vec![f(first)] };
    let f = &f;
    thread::scope(|scope| {
        let rest: Vec<_> =
            std::iter::once(second).chain(parts).map(|p| scope.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        for handle in rest {
            out.push(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;

    #[test]
    fn results_come_back_in_part_order() {
        let got = fork_join((0..7).map(|i| i * 10..i * 10 + 3), |r| r.sum::<usize>());
        assert_eq!(got, vec![3, 33, 63, 93, 123, 153, 183]);
        // Disjoint `&mut` slices zipped with their offsets: each part
        // writes only its own slice.
        let mut out = vec![0usize; 10];
        fork_join(out.chunks_mut(3).zip((0..10).step_by(3)), |(chunk, start)| {
            for (off, o) in chunk.iter_mut().enumerate() {
                *o = start + off;
            }
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn the_first_part_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids: Vec<ThreadId> = fork_join(0..4, |_| thread::current().id());
        assert_eq!(ids[0], caller);
        for id in &ids[1..] {
            assert_ne!(*id, caller, "later parts run on threads of their own");
        }
    }

    #[test]
    fn one_part_spawns_nothing_and_zero_parts_return_nothing() {
        let caller = thread::current().id();
        assert_eq!(fork_join([()], |()| thread::current().id()), vec![caller]);
        assert!(fork_join(std::iter::empty::<usize>(), |i| i).is_empty());
    }

    /// The payload a panicking `fork_join` re-raises, as text.
    fn payload_of(parts: usize, panicking: usize) -> String {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fork_join(0..parts, |i| {
                if i == panicking {
                    panic!("part {i} failed");
                }
                i
            })
        }))
        .expect_err("a part panicked");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or_else(String::new, |s| (*s).to_string()),
        }
    }

    #[test]
    fn a_panicking_part_surfaces_with_its_own_payload() {
        assert_eq!(payload_of(3, 2), "part 2 failed", "a worker's panic");
        assert_eq!(payload_of(3, 0), "part 0 failed", "the calling thread's panic");
        assert_eq!(payload_of(1, 0), "part 0 failed", "a lone part's panic");
    }
}
