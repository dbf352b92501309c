#![warn(missing_docs)]
//! # reecc-opt
//!
//! Resistance-eccentricity minimization by edge addition (paper §VI–VII).
//!
//! Two problems:
//!
//! * **REMD** (Problem 1): add `k` edges *incident to the source* `s`
//!   (candidates `Q₁ = {(s,u) : (s,u) ∉ E}`) minimizing `c(s)`.
//! * **REM** (Problem 2): add `k` arbitrary missing edges (candidates
//!   `Q₂ = (V×V)\E`) minimizing `c(s)`.
//!
//! Both objectives are monotone non-increasing but **not** supermodular
//! (§VI-B; see [`supermodularity`]), so greedy carries no
//! `(1 − 1/e)`-guarantee — the paper (and this crate) provides heuristics:
//!
//! | Algorithm | Problem | Module |
//! |---|---|---|
//! | OPT (exhaustive) | both | [`exhaustive`] |
//! | SIMPLE (exact greedy, Algorithm 4) | both | [`simple`] |
//! | FARMINRECC (Algorithm 5) | REMD | [`heuristics`] |
//! | CENMINRECC (Algorithm 6) | REMD | [`heuristics`] |
//! | CHMINRECC (Algorithm 8) | REM | [`heuristics`] |
//! | MINRECC (Algorithm 9) | REM | [`heuristics`] |
//! | DE / PK / PATH baselines | both | [`baselines`] |
//!
//! [`trajectory`] evaluates `c(s)` along a plan's prefixes so the
//! experiment harnesses can plot the paper's Figures 8–9 curves.

pub mod baselines;
pub mod control;
pub mod evaluator;
pub mod exhaustive;
pub mod heuristics;
pub mod problem;
pub mod screen;
pub mod simple;
pub mod supermodularity;
pub mod trajectory;

pub use baselines::{de_rem, de_remd, path_rem, path_remd, pk_rem, pk_remd};
pub use control::{ControlledRun, IterationEvent, Observer, PlanStep, RunControl};
pub use evaluator::{CandidateEvaluator, CandidateScore, EvalStats};
pub use exhaustive::opt_exhaustive;
pub use heuristics::{
    cen_min_recc, cen_min_recc_controlled, cen_min_recc_with_diagnostics, ch_min_recc,
    ch_min_recc_controlled, ch_min_recc_with_diagnostics, far_min_recc,
    far_min_recc_controlled, far_min_recc_with_diagnostics, min_recc, min_recc_controlled,
    min_recc_with_diagnostics, EvalMode, OptDiagnostics, OptimizeParams,
};
pub use problem::Problem;
pub use screen::{screen_edges, shortlist, CONFIRM};
pub use simple::{
    simple_greedy, simple_greedy_controlled, simple_greedy_with_diagnostics, SimpleOptions,
};
pub use trajectory::{approx_trajectory, exact_trajectory};

/// Errors from the optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// `k` was zero or exceeded the candidate set.
    InvalidBudget {
        /// Requested budget.
        k: usize,
        /// Available candidates.
        candidates: usize,
    },
    /// Source node out of range.
    SourceOutOfRange {
        /// Offending id.
        node: usize,
        /// Graph order.
        n: usize,
    },
    /// An underlying resistance computation failed.
    Core(reecc_core::CoreError),
    /// Graph manipulation failed.
    Graph(String),
    /// A controlled run was aborted by its observer (for example, a
    /// checkpoint write failed). The message is the observer's reason.
    Aborted(String),
    /// A resume prefix could not be applied: an edge was not an available
    /// candidate, the prefix exceeded the budget, or replay ended early.
    Resume(String),
    /// A re-executed resume replay decided a different edge than the
    /// checkpointed prefix — the checkpoint belongs to a different graph,
    /// configuration, or code version.
    ResumeMismatch {
        /// Iteration at which replay diverged.
        iteration: usize,
        /// The checkpointed edge.
        expected: reecc_graph::Edge,
        /// The edge replay decided instead.
        found: reecc_graph::Edge,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::InvalidBudget { k, candidates } => {
                write!(f, "budget k={k} invalid for {candidates} candidate edges")
            }
            OptError::SourceOutOfRange { node, n } => {
                write!(f, "source {node} out of range for {n}-node graph")
            }
            OptError::Core(e) => write!(f, "resistance computation failed: {e}"),
            OptError::Graph(msg) => write!(f, "graph operation failed: {msg}"),
            OptError::Aborted(msg) => write!(f, "run aborted by its observer: {msg}"),
            OptError::Resume(msg) => write!(f, "resume prefix rejected: {msg}"),
            OptError::ResumeMismatch { iteration, expected, found } => write!(
                f,
                "resume replay diverged at iteration {iteration}: checkpoint has \
                 ({}, {}), replay chose ({}, {})",
                expected.u, expected.v, found.u, found.v
            ),
        }
    }
}

impl std::error::Error for OptError {}

impl From<reecc_core::CoreError> for OptError {
    fn from(e: reecc_core::CoreError) -> Self {
        OptError::Core(e)
    }
}

impl From<reecc_graph::GraphError> for OptError {
    fn from(e: reecc_graph::GraphError) -> Self {
        OptError::Graph(e.to_string())
    }
}
