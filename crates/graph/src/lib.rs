#![warn(missing_docs)]
//! # reecc-graph
//!
//! Graph substrate for the resistance-eccentricity library.
//!
//! This crate provides everything the higher layers need from a graph engine:
//!
//! * [`Graph`] — an immutable, connected-or-not, undirected, unweighted simple
//!   graph stored in compressed sparse row (CSR) form, with O(1) degree and
//!   O(deg) neighbor iteration.
//! * [`GraphBuilder`] — incremental construction with duplicate-edge and
//!   self-loop removal.
//! * [`fingerprint`](mod@fingerprint) — representation-level FNV-1a graph fingerprints
//!   (snapshot validation in the serving layer).
//! * [`generators`] — deterministic and seeded random graph families (line,
//!   cycle, star, complete, grid, trees, barbells, Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz, Holme–Kim).
//! * [`traversal`] — BFS, connected components, largest-connected-component
//!   extraction, hop distances and hop eccentricity.
//! * [`pagerank`] — power-iteration PageRank (used by the PK baselines).
//! * [`stats`] — degree statistics, power-law exponent MLE, clustering
//!   coefficient.
//! * [`io`] — whitespace-separated edge-list reading and writing.
//!
//! # Quick example
//!
//! ```
//! use reecc_graph::generators::cycle;
//!
//! let g = cycle(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! assert_eq!(g.degree(3), 2);
//! assert!(g.neighbors(0).contains(&7));
//! ```

pub mod builder;
pub mod connectivity;
pub mod fingerprint;
pub mod generators;
pub mod graph;
pub mod io;
pub mod kcore;
pub mod pagerank;
pub mod spanning;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use fingerprint::fingerprint;
pub use graph::{Edge, Graph, NodeId};

/// Errors produced while constructing or loading graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// The operation requires a connected graph but the input is not.
    Disconnected,
    /// The operation requires at least this many nodes.
    TooFewNodes {
        /// Required minimum.
        required: usize,
        /// Actual count.
        actual: usize,
    },
    /// The operation referenced an edge that is not present in the graph.
    EdgeNotFound {
        /// Smaller endpoint of the missing edge.
        u: usize,
        /// Larger endpoint of the missing edge.
        v: usize,
    },
    /// A parse failure while reading an edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node id {node} out of range for graph with {n} nodes")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::TooFewNodes { required, actual } => {
                write!(f, "operation requires >= {required} nodes, got {actual}")
            }
            GraphError::EdgeNotFound { u, v } => {
                write!(f, "edge ({u}, {v}) is not present in the graph")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}
