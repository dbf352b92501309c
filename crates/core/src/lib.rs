#![warn(missing_docs)]
//! # reecc-core
//!
//! Resistance distance and resistance eccentricity — the primary
//! contribution of *"Resistance Eccentricity in Graphs: Distribution,
//! Computation and Optimization"* (ICDE 2024), implemented in Rust.
//!
//! For a connected graph `G`, the resistance distance between nodes `u, v`
//! is `r(u,v) = L†_uu + L†_vv − 2 L†_uv`; the *resistance eccentricity* of
//! `v` is `c(v) = max_u r(v,u)`.
//!
//! Three query pipelines are provided, mirroring the paper's Algorithms
//! 1–3:
//!
//! * [`exact::ExactResistance`] / [`query::exact_query`] — EXACTQUERY:
//!   dense pseudoinverse preprocessing (`O(n³)`), `O(n)` per query.
//! * [`sketch::ResistanceSketch`] / [`query::approx_query`] —
//!   APPROXQUERY: the Spielman–Srivastava APPROXER sketch
//!   (`X̃ = Q B L†`, built with JL projections and a hand-rolled CG
//!   Laplacian solver), `O(n·d)` per query.
//! * [`query::fast_query`] — FASTQUERY: additionally runs APPROXCH on the
//!   sketch embedding and queries only against the `l ≪ n` hull boundary
//!   points, `O(l·d)` per query.
//!
//! [`update`] implements Sherman–Morrison rank-1 resistance updates under
//! edge addition — the engine behind the exact greedy optimizer and the
//! fast candidate evaluation in `reecc-opt`.
//!
//! # Quickstart
//!
//! ```
//! use reecc_graph::generators::lollipop;
//! use reecc_core::exact::ExactResistance;
//!
//! let g = lollipop(5, 4); // clique with a tail
//! let exact = ExactResistance::new(&g).unwrap();
//! let tail_end = g.node_count() - 1;
//! let dist = exact.eccentricity_distribution();
//! // The tail end realizes the resistance diameter...
//! assert!((dist.get(tail_end) - dist.diameter()).abs() < 1e-9);
//! // ...and the radius is strictly smaller.
//! assert!(dist.radius() < dist.diameter());
//! ```

pub mod engine;
pub mod estimators;
pub mod exact;
pub mod metrics;
pub mod panel;
pub mod query;
pub mod sketch;
pub mod update;
pub mod walks;

pub use engine::{QueryEngine, WhatIfScratch};
pub use exact::ExactResistance;
pub use metrics::EccentricityDistribution;
pub use panel::NormOrder;
pub use query::{
    approx_query, approx_recc, exact_query, fast_query, fast_query_distribution,
    fast_query_with_policy, resistance_between, DegradationPolicy, FastQueryOutput,
    QueryDiagnostics, QueryTier,
};
pub use sketch::{Precision, ResistanceSketch, SketchDiagnostics, SketchParams};
// Solver knobs that surface through `SketchParams.cg`, re-exported so
// downstream layers (CLI, bench harness) can configure the sketch without
// a direct reecc-linalg dependency.
pub use reecc_linalg::{CgOptions, ChebyshevConfig, Preconditioner};
// What `threads: 0` means, for the serve pool and the CLI.
pub use reecc_linalg::par::resolve_threads;

/// Errors from resistance computations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The graph must be connected for resistance distances to be finite.
    Disconnected,
    /// The graph must have at least one node.
    EmptyGraph,
    /// A node id was out of range.
    NodeOutOfRange {
        /// Offending id.
        node: usize,
        /// Graph order.
        n: usize,
    },
    /// Removing this edge would disconnect the graph (its effective
    /// resistance is ≈ 1, making the Sherman–Morrison denominator
    /// `1 − r(u,v)` vanish). Returned instead of producing NaNs.
    DisconnectingRemoval {
        /// Smaller endpoint of the offending edge.
        u: usize,
        /// Larger endpoint of the offending edge.
        v: usize,
        /// The measured effective resistance `r(u, v)`.
        r_uv: f64,
    },
    /// An underlying numerical routine failed.
    Numerical(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Disconnected => write!(f, "graph must be connected"),
            CoreError::EmptyGraph => write!(f, "graph must be non-empty"),
            CoreError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for {n}-node graph")
            }
            CoreError::DisconnectingRemoval { u, v, r_uv } => write!(
                f,
                "removing edge ({u}, {v}) would disconnect the graph \
                 (bridge: r(u,v) = {r_uv})"
            ),
            CoreError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<reecc_linalg::LinalgError> for CoreError {
    fn from(e: reecc_linalg::LinalgError) -> Self {
        CoreError::Numerical(e.to_string())
    }
}
