//! Cooperative run control for the greedy optimizers: cancellation,
//! per-iteration observation, and checkpointed resume.
//!
//! Every optimizer in this crate is a greedy loop that commits one edge
//! per iteration. The serving layer (see the `reecc-serve` crate) runs
//! those loops as long-lived background jobs and needs three hooks that a
//! batch caller does not:
//!
//! * **cancellation** — a cooperative token checked between iterations
//!   (and between candidate blocks inside the evaluation engine), so a
//!   cancelled job stops within one block solve instead of one full run;
//! * **observation** — a callback fired once per *freshly decided* edge,
//!   in commit order, carrying the per-iteration telemetry a progress
//!   stream or a checkpoint writer needs. The callback is fallible: an
//!   `Err` aborts the run with [`OptError::Aborted`], which is how a
//!   failed checkpoint write turns into a cleanly failed job;
//! * **resume** — a previously committed edge prefix replayed before any
//!   fresh decision, so a restarted job continues bitwise-identically
//!   from its checkpoint instead of starting over.
//!
//! # Resume determinism
//!
//! Each optimizer replays the prefix with the cheapest strategy that
//! provably reproduces the uninterrupted run's internal state:
//!
//! * **eager SIMPLE** locates each prefix edge in the remaining candidate
//!   vector and `swap_remove`s it — reproducing the exact candidate
//!   permutation that drives eager tie-breaking — then applies the rank-1
//!   pseudoinverse update. No candidate is re-evaluated.
//! * **lazy SIMPLE (CELF)** re-executes the full lazy loop over the
//!   prefix and *verifies* each replayed pick against the checkpoint
//!   ([`OptError::ResumeMismatch`] on divergence). The CELF heap carries
//!   stale bounds across iterations; rebuilding a fresh heap at the
//!   resume point would evaluate the true argmax where the uninterrupted
//!   run may have accepted a stale bound (the objective is not
//!   supermodular), so re-execution is the only bitwise-sound resume.
//! * **CENMINRECC** likewise re-executes (its min-merged distance state
//!   spans iterations) and verifies each replayed pick.
//! * **FARMINRECC / CHMINRECC / MINRECC** commit the prefix edges
//!   directly and keep the global iteration counter aligned so the
//!   per-iteration sketch seeds of the fresh iterations match the
//!   uninterrupted run. No prefix iteration is re-evaluated.
//!
//! Observers fire only for fresh decisions — never for replayed prefix
//! edges, which the caller already has (they came out of its checkpoint).

use std::sync::atomic::{AtomicBool, Ordering};

use reecc_graph::Edge;

use crate::heuristics::OptDiagnostics;
use crate::OptError;

/// One committed greedy step: the edge and the selection score the
/// optimizer chose it by (post-addition eccentricity for SIMPLE / CH /
/// MINRECC, the argmax resistance for FAR / CEN).
///
/// Steps replayed from a resume prefix without re-evaluation carry
/// `score = f64::NAN`; callers resuming from a checkpoint substitute the
/// checkpointed scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStep {
    /// The committed edge.
    pub edge: Edge,
    /// The selection score at commit time (`NaN` when replayed without
    /// re-evaluation).
    pub score: f64,
}

/// What an observer sees for each freshly decided edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
    /// Zero-based global iteration index (resumed prefix included).
    pub iteration: usize,
    /// The edge this iteration committed.
    pub edge: Edge,
    /// The selection score of the committed edge.
    pub score: f64,
    /// Fresh candidate evaluations performed *this iteration* (in
    /// CHMINRECC / MINRECC, the candidates CG confirmed after the sketch
    /// screen: at most [`crate::CONFIRM`], plus MINRECC's direct edge).
    pub full_evals: usize,
    /// Lazy-greedy re-evaluations skipped *this iteration*.
    pub lazy_hits: usize,
}

/// Per-iteration callback: `Err` aborts the run with
/// [`OptError::Aborted`].
pub type Observer<'a> = &'a mut dyn FnMut(&IterationEvent) -> Result<(), String>;

/// External control handles threaded through a `*_controlled` optimizer
/// run. [`RunControl::none`] reproduces the plain batch behavior exactly.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Cooperative cancellation token, polled between greedy iterations
    /// and between candidate blocks inside the evaluation engine.
    pub cancel: Option<&'a AtomicBool>,
    /// Previously committed edge prefix to replay before fresh decisions.
    pub resume: &'a [Edge],
    /// Per-iteration observer for fresh decisions.
    pub observer: Option<Observer<'a>>,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("resume", &self.resume)
            .field("observer", &self.observer.as_ref().map(|_| "FnMut"))
            .finish()
    }
}

impl<'a> RunControl<'a> {
    /// No cancellation, no resume, no observer: the batch behavior.
    pub fn none() -> Self {
        RunControl::default()
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Fire the observer for a fresh decision; maps an observer refusal
    /// to [`OptError::Aborted`].
    pub(crate) fn observe(&mut self, event: &IterationEvent) -> Result<(), OptError> {
        match self.observer.as_mut() {
            Some(obs) => obs(event).map_err(OptError::Aborted),
            None => Ok(()),
        }
    }

    /// Validate the resume prefix against the budget: a prefix longer
    /// than `k` can only come from a foreign or tampered checkpoint.
    pub(crate) fn check_resume_budget(&self, k: usize) -> Result<(), OptError> {
        if self.resume.len() > k {
            return Err(OptError::Resume(format!(
                "resume prefix has {} edges but the budget is k={k}",
                self.resume.len()
            )));
        }
        Ok(())
    }
}

/// The outcome of a controlled optimizer run.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledRun {
    /// Committed steps in order, replayed prefix first.
    pub steps: Vec<PlanStep>,
    /// Work and robustness telemetry (fresh iterations only for the
    /// fast-replay optimizers; replay included where re-execution runs).
    pub diag: OptDiagnostics,
    /// Whether the run stopped on the cancellation token (the steps are a
    /// valid partial plan).
    pub cancelled: bool,
    /// Number of steps replayed from the resume prefix.
    pub resumed: usize,
}

impl ControlledRun {
    /// The committed edges in order.
    pub fn plan(&self) -> Vec<Edge> {
        self.steps.iter().map(|st| st.edge).collect()
    }

    pub(crate) fn finished(steps: Vec<PlanStep>, diag: OptDiagnostics, resumed: usize) -> Self {
        ControlledRun { steps, diag, cancelled: false, resumed }
    }

    pub(crate) fn cancelled(
        steps: Vec<PlanStep>,
        diag: OptDiagnostics,
        resumed: usize,
    ) -> Self {
        ControlledRun { steps, diag, cancelled: true, resumed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_control_is_inert() {
        let ctrl = RunControl::none();
        assert!(!ctrl.is_cancelled());
        assert!(ctrl.resume.is_empty());
        assert!(ctrl.check_resume_budget(0).is_ok());
    }

    #[test]
    fn cancel_token_is_observed() {
        let flag = AtomicBool::new(false);
        let ctrl = RunControl { cancel: Some(&flag), ..RunControl::none() };
        assert!(!ctrl.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(ctrl.is_cancelled());
    }

    #[test]
    fn observer_error_becomes_aborted() {
        let mut obs = |_: &IterationEvent| Err("disk full".to_string());
        let mut ctrl = RunControl { observer: Some(&mut obs), ..RunControl::none() };
        let event = IterationEvent {
            iteration: 0,
            edge: Edge::new(0, 1),
            score: 1.0,
            full_evals: 1,
            lazy_hits: 0,
        };
        match ctrl.observe(&event) {
            Err(OptError::Aborted(msg)) => assert_eq!(msg, "disk full"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_resume_prefix_is_rejected() {
        let prefix = [Edge::new(0, 1), Edge::new(2, 3)];
        let ctrl = RunControl { resume: &prefix, ..RunControl::none() };
        assert!(matches!(ctrl.check_resume_budget(1), Err(OptError::Resume(_))));
        assert!(ctrl.check_resume_budget(2).is_ok());
    }
}
