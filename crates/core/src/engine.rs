//! A reusable query engine: build the sketch and hull once, answer many
//! eccentricity queries cheaply.
//!
//! The free functions in [`crate::query`] rebuild the sketch per call —
//! right for one-shot experiments, wasteful for services. `QueryEngine`
//! is the long-lived counterpart a downstream application holds on to:
//!
//! ```
//! use reecc_graph::generators::barabasi_albert;
//! use reecc_core::engine::QueryEngine;
//! use reecc_core::SketchParams;
//!
//! let g = barabasi_albert(500, 3, 7);
//! let engine = QueryEngine::build(&g, &SketchParams::with_epsilon(0.3)).unwrap();
//! let a = engine.eccentricity(0);
//! let b = engine.eccentricity(499);
//! assert!(a.value > 0.0 && b.value > 0.0);
//! // Pairwise resistance estimates come for free from the same sketch.
//! assert!(engine.resistance(0, 499) > 0.0);
//! ```
//!
//! The engine also supports *edge-addition what-ifs* via the
//! Sherman–Morrison machinery — one CG solve per hypothetical edge, no
//! rebuild — which is exactly the inner loop of the optimizers.

use std::sync::OnceLock;

use reecc_graph::{Edge, Graph};
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions};
use reecc_linalg::cg::CgWorkspace;
use reecc_linalg::par::{self, resolve_threads};
use reecc_linalg::{CgOptions, Preconditioner};

use crate::panel::NormOrder;
use crate::query::default_hull_budget;
use crate::sketch::{ResistanceSketch, SketchParams};
use crate::update::{
    solve_edge_potentials_with, updated_eccentricity, updated_eccentricity_removed,
};
use crate::CoreError;

/// One eccentricity answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccentricityAnswer {
    /// The estimated eccentricity `ĉ(v)`.
    pub value: f64,
    /// The (estimated) farthest node realizing it.
    pub farthest: usize,
}

/// A built sketch, its hull and its norm order, answering repeated
/// queries.
///
/// The engine is a plain owned value: every query method takes `&self`
/// and allocates any scratch space it needs locally (see
/// [`Self::eccentricity_after_edge`]). Its one piece of interior
/// mutability is a write-once cell holding the batch thread count, which
/// the first multi-source batch resolves. It is therefore `Send + Sync`
/// and intended to be shared across worker threads behind an `Arc` — the
/// `reecc-serve` thread pool does exactly that. A compile-time assertion
/// below keeps that property from regressing.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    graph: Graph,
    sketch: ResistanceSketch,
    hull: Vec<usize>,
    norms: NormOrder,
    params: SketchParams,
    /// [`resolve_threads`]`(params.threads)`, resolved by the first batch
    /// that threads (see [`Self::batch_threads`]).
    batch_threads: OnceLock<usize>,
}

impl QueryEngine {
    /// Build from a connected graph with the default hull budget.
    ///
    /// # Errors
    ///
    /// Propagates sketch construction failures.
    pub fn build(g: &Graph, params: &SketchParams) -> Result<Self, CoreError> {
        Self::build_with_hull_options(
            g,
            params,
            ApproxChOptions {
                max_vertices: Some(default_hull_budget(g.node_count())),
                ..ApproxChOptions::default()
            },
        )
    }

    /// Build with explicit hull options (e.g. the unbudgeted faithful
    /// coverage mode). The hull's thread count is `params.threads`,
    /// whatever `hull_opts.threads` says.
    ///
    /// # Errors
    ///
    /// Propagates sketch construction failures.
    pub fn build_with_hull_options(
        g: &Graph,
        params: &SketchParams,
        hull_opts: ApproxChOptions,
    ) -> Result<Self, CoreError> {
        // Resolve any auto-Chebyshev sentinels once and *store the resolved
        // params*: the power-iteration eigenvalue estimate is then cached
        // on the engine, so what-if solves, the candidate evaluator, and
        // the serving layer's re-sketch path (all of which copy
        // `engine.params()`) reuse it instead of re-estimating per batch.
        let params = params.resolved_for(g);
        let sketch = ResistanceSketch::build(g, &params)?;
        let theta = (params.epsilon / 12.0).clamp(1e-6, 0.999);
        let hull_opts = ApproxChOptions { threads: params.threads, ..hull_opts };
        let hull = approx_convex_hull(&sketch.point_view(), theta, hull_opts).vertices;
        Self::from_parts(g.clone(), sketch, hull, params)
    }

    /// Reassemble an engine from previously exported parts — the snapshot
    /// restore path in `reecc-serve`, which persists the sketch rows and
    /// hull so a service restart skips the `m·log n·ε⁻²` rebuild. The
    /// parts are validated against each other: the sketch must cover the
    /// graph's node set and the hull must be a non-empty in-range vertex
    /// list.
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] / [`CoreError::NodeOutOfRange`] naming the
    /// inconsistency.
    pub fn from_parts(
        graph: Graph,
        sketch: ResistanceSketch,
        hull: Vec<usize>,
        params: SketchParams,
    ) -> Result<Self, CoreError> {
        Self::assemble(graph, sketch, hull, params, None)
    }

    /// [`Self::from_parts`], with the sketch's squared column norms when a
    /// rank-1 write's pass already took them (so the norm order skips its
    /// own sweep over the sketch).
    fn assemble(
        graph: Graph,
        sketch: ResistanceSketch,
        hull: Vec<usize>,
        params: SketchParams,
        norms: Option<Vec<f64>>,
    ) -> Result<Self, CoreError> {
        let n = graph.node_count();
        if sketch.node_count() != n {
            return Err(CoreError::Numerical(format!(
                "sketch covers {} nodes but the graph has {n}",
                sketch.node_count()
            )));
        }
        if hull.is_empty() {
            return Err(CoreError::Numerical(
                "hull boundary must contain at least one vertex".to_string(),
            ));
        }
        if let Some(&bad) = hull.iter().find(|&&v| v >= n) {
            return Err(CoreError::NodeOutOfRange { node: bad, n });
        }
        // The norm order is rebuilt on *every* construction path — fresh
        // build, snapshot restore, and the rank-1 mutations — so the
        // serving layer's epoch swaps can never scan in an order taken
        // from a previous epoch's embeddings.
        let norms = match norms {
            Some(norms) => NormOrder::with_norms(&sketch, norms),
            None => NormOrder::build(&sketch),
        };
        Ok(QueryEngine { graph, sketch, hull, norms, params, batch_threads: OnceLock::new() })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The hull boundary subset `Ŝ` (node ids, in selection order).
    pub fn hull(&self) -> &[usize] {
        &self.hull
    }

    /// The sketch parameters the engine was built with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The sketch (for callers that need raw embeddings).
    pub fn sketch(&self) -> &ResistanceSketch {
        &self.sketch
    }

    /// Hull boundary size `l`.
    pub fn hull_size(&self) -> usize {
        self.hull.len()
    }

    /// The per-node norms and the descending-norm node order the
    /// eccentricity scan visits (see [`NormOrder`]).
    pub fn norm_order(&self) -> &NormOrder {
        &self.norms
    }

    /// APPROXQUERY eccentricity of `v`: the maximum sketched resistance
    /// over **all** nodes, by the norm-pruned scan
    /// ([`NormOrder::eccentricity_pruned`]) on the calling thread. Bitwise
    /// the answer (value and farthest node) of the `O(n·d)`
    /// [`ResistanceSketch::eccentricity`], usually from a few percent of
    /// the nodes (all of them in the worst case, on graphs without a
    /// low-degree periphery; DESIGN §15.5). The hull is not read, so a
    /// mutated engine's stale hull cannot change an answer.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity(&self, v: usize) -> EccentricityAnswer {
        let scan = self.norms.eccentricity_pruned(&self.sketch, v);
        EccentricityAnswer { value: scan.value, farthest: scan.farthest }
    }

    /// The same as [`Self::eccentricity`], under its former name.
    pub fn eccentricity_full_scan(&self, v: usize) -> EccentricityAnswer {
        self.eccentricity(v)
    }

    /// [`Self::eccentricity`] for a block of sources. Sequential unless
    /// the batch's worst-case work (`sources × n × d`) clears a floor of
    /// 2²⁵ multiply-adds; above it the sources are split over
    /// [`resolve_threads`]`(params.threads)` chunks.
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_batch(&self, sources: &[usize]) -> Vec<EccentricityAnswer> {
        let work = sources.len() * self.sketch.node_count() * self.sketch.dimension();
        let threads = self.batch_threads(sources.len(), work);
        self.eccentricity_batch_with(sources, threads)
    }

    /// Threads for a default-threaded batch of `sources` whose worst-case
    /// `work` is known: one for a single source or below
    /// [`PARALLEL_PRUNED_MIN_WORK`], where a spawn costs more than it
    /// saves, else [`resolve_threads`]`(params.threads)`, resolved once per
    /// engine. Resolving `threads: 0` asks the OS (about 20 µs on a 2-vCPU
    /// Linux VM), so the first batch above the floor asks and every later
    /// one reuses the answer. Every epoch swap builds a new engine, so a
    /// changed CPU affinity is picked up at the next epoch.
    fn batch_threads(&self, sources: usize, work: usize) -> usize {
        if sources < 2 || work < PARALLEL_PRUNED_MIN_WORK {
            1
        } else {
            *self.batch_threads.get_or_init(|| resolve_threads(self.params.threads))
        }
    }

    /// [`Self::eccentricity_batch`] on contiguous chunks of
    /// `⌈sources / threads⌉` sources, the first on the calling thread and
    /// the rest on threads of their own ([`par::fork_join`]; the
    /// determinism test matrix drives this directly). Each source's scan
    /// stays sequential, so no answer's bits depend on the batch shape or
    /// the thread count.
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_batch_with(
        &self,
        sources: &[usize],
        threads: usize,
    ) -> Vec<EccentricityAnswer> {
        let mut out = vec![EccentricityAnswer { value: 0.0, farthest: 0 }; sources.len()];
        let chunk = sources.len().div_ceil(threads.max(1)).max(1);
        par::fork_join(sources.chunks(chunk).zip(out.chunks_mut(chunk)), |(src, dst)| {
            for (&v, slot) in src.iter().zip(dst) {
                *slot = self.eccentricity(v);
            }
        });
        out
    }

    /// Sketched pairwise resistance, `O(d)`.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn resistance(&self, u: usize, v: usize) -> f64 {
        self.sketch.resistance(u, v)
    }

    /// What-if: the estimated eccentricity of `s` after hypothetically
    /// adding `edge`, via one CG solve on the current graph (the engine is
    /// not modified).
    ///
    /// Allocates fresh scratch per call; long-lived callers (the serving
    /// pool) should hold a [`WhatIfScratch`] and use
    /// [`Self::eccentricity_after_edge_with`] instead.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn eccentricity_after_edge(&self, s: usize, edge: Edge) -> EccentricityAnswer {
        let mut scratch = WhatIfScratch::new(self.graph.node_count());
        self.eccentricity_after_edge_with(&mut scratch, s, edge)
    }

    /// [`Self::eccentricity_after_edge`] with caller-held scratch: the CG
    /// workspace, right-hand-side, and base-distance buffers are reused
    /// across calls, so a warm what-if solve performs only the one
    /// solution-vector allocation inside CG. Bitwise identical to the
    /// allocating variant.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range or the scratch was sized for a
    /// different node count.
    pub fn eccentricity_after_edge_with(
        &self,
        scratch: &mut WhatIfScratch,
        s: usize,
        edge: Edge,
    ) -> EccentricityAnswer {
        let n = self.graph.node_count();
        assert_eq!(scratch.base.len(), n, "scratch sized for a different graph");
        let (w, r_uv) = solve_edge_potentials_with(
            &self.graph,
            edge,
            self.params.cg,
            &mut scratch.ws,
            &mut scratch.rhs,
        );
        // Norms-decomposed base fill: the norm order's per-node norms
        // turn each base distance into one dot product instead of a fused
        // subtract-square-add recomputed from scratch per call.
        self.norms.resistances_from_norms_into(&self.sketch, &mut scratch.base, s);
        let (value, farthest) = updated_eccentricity(&scratch.base, &w, r_uv, s);
        EccentricityAnswer { value, farthest }
    }

    /// What-if for *removal*: the estimated eccentricity of `s` after
    /// hypothetically removing `edge`, via one CG solve on the current
    /// graph and the sign-flipped Sherman–Morrison update (the engine is
    /// not modified). The removal counterpart of
    /// [`Self::eccentricity_after_edge_with`], sharing the same scratch.
    ///
    /// Connectivity is checked structurally (BFS on the cut graph) before
    /// any numerics run, so a bridge is always the typed
    /// [`CoreError::DisconnectingRemoval`] — never an infinite score; the
    /// denominator floor inside the rank-1 update is a second line of
    /// defense against near-bridge numerics.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeOutOfRange`] for bad endpoints,
    /// [`CoreError::Numerical`] if `edge` is not present, and
    /// [`CoreError::DisconnectingRemoval`] if removing it would disconnect
    /// the graph.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the scratch was sized for a
    /// different node count.
    pub fn eccentricity_after_removal_with(
        &self,
        scratch: &mut WhatIfScratch,
        s: usize,
        edge: Edge,
    ) -> Result<EccentricityAnswer, CoreError> {
        let n = self.graph.node_count();
        assert_eq!(scratch.base.len(), n, "scratch sized for a different graph");
        if edge.v >= n {
            return Err(CoreError::NodeOutOfRange { node: edge.v, n });
        }
        let cut =
            self.graph.without_edge(edge).map_err(|g| CoreError::Numerical(g.to_string()))?;
        if !reecc_graph::traversal::is_connected(&cut) {
            return Err(CoreError::DisconnectingRemoval { u: edge.u, v: edge.v, r_uv: 1.0 });
        }
        let (w, r_uv) = solve_edge_potentials_with(
            &self.graph,
            edge,
            self.params.cg,
            &mut scratch.ws,
            &mut scratch.rhs,
        );
        self.norms.resistances_from_norms_into(&self.sketch, &mut scratch.base, s);
        let (value, farthest) = updated_eccentricity_removed(&scratch.base, &w, r_uv, edge, s)?;
        Ok(EccentricityAnswer { value, farthest })
    }

    /// The CG configuration for durable rank-1 mutations
    /// ([`Self::with_added_edge`] / [`Self::with_removed_edge`]): the
    /// build-time `precision`/`precond` selection must not leak into
    /// these solves, because a WAL record replayed on a recovered engine
    /// (whose snapshot restores default solver params) has to reproduce
    /// the live mutation bit for bit. The solve is a scalar f64 column
    /// either way — the tuned configs target the blocked sketch build —
    /// so mutations are pinned to the default preconditioner.
    fn mutation_cg(&self) -> CgOptions {
        CgOptions { preconditioner: Preconditioner::Jacobi, ..self.params.cg }
    }

    /// Live mutation: a new engine for the graph **plus** edge `e`, via
    /// one CG solve and a Sherman–Morrison rank-1 sketch update
    /// ([`ResistanceSketch::added_edge`]) — `O(n·d)` instead of a full
    /// rebuild. Returns the new engine and the measured `r(u, v)` on the
    /// pre-addition graph (the serving layer's error-budget input).
    ///
    /// The hull boundary is carried over unchanged: it remains a valid
    /// in-range vertex subset but is *stale* with respect to the mutated
    /// embedding, so hull-restricted eccentricities
    /// ([`ResistanceSketch::eccentricity_over`]) lose their FASTQUERY
    /// guarantee until a re-sketch. [`Self::eccentricity`] does not read
    /// the hull: the new engine's norm order re-sorts the nodes by their
    /// mutated norms, and the update keeps the embeddings' centroid at
    /// the origin (`w ⊥ 𝟏`), so the norm-pruned scan stays exact and
    /// stays cheap.
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeOutOfRange`] for bad endpoints and
    /// [`CoreError::Numerical`] if `e` is already present (applying the
    /// rank-1 update twice would model a parallel resistor the graph
    /// cannot represent).
    pub fn with_added_edge(
        &self,
        e: Edge,
        q_seed: u64,
    ) -> Result<(QueryEngine, f64), CoreError> {
        let n = self.graph.node_count();
        if e.v >= n {
            return Err(CoreError::NodeOutOfRange { node: e.v, n });
        }
        if self.graph.has_edge(e.u, e.v) {
            return Err(CoreError::Numerical(format!(
                "edge ({}, {}) is already present",
                e.u, e.v
            )));
        }
        let mut scratch = WhatIfScratch::new(n);
        let (w, r_uv) = solve_edge_potentials_with(
            &self.graph,
            e,
            self.mutation_cg(),
            &mut scratch.ws,
            &mut scratch.rhs,
        );
        let graph = self.graph.with_edge(e).map_err(|g| CoreError::Numerical(g.to_string()))?;
        let (sketch, norms) = self.sketch.added_edge(e, &w, r_uv, q_seed);
        let engine =
            Self::assemble(graph, sketch, self.hull.clone(), self.params, Some(norms))?;
        Ok((engine, r_uv))
    }

    /// Live mutation: a new engine for the graph **minus** edge `e`, via
    /// one CG solve and the rank-1 downdate
    /// ([`ResistanceSketch::removed_edge`]). Returns the new engine
    /// and the measured `r(u, v)` on the pre-removal graph.
    ///
    /// Connectivity is checked structurally (BFS on the cut graph) before
    /// any numerics run, so a bridge removal is always a typed error, even
    /// when CG noise makes `r(u, v)` measure slightly below 1; the
    /// denominator floor inside the sketch downdate is a second line of
    /// defense. The hull is carried over stale, as in
    /// [`Self::with_added_edge`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NodeOutOfRange`] for bad endpoints,
    /// [`CoreError::Numerical`] if `e` is not an edge, and
    /// [`CoreError::DisconnectingRemoval`] if removing it would disconnect
    /// the graph.
    pub fn with_removed_edge(&self, e: Edge) -> Result<(QueryEngine, f64), CoreError> {
        let n = self.graph.node_count();
        if e.v >= n {
            return Err(CoreError::NodeOutOfRange { node: e.v, n });
        }
        let graph =
            self.graph.without_edge(e).map_err(|g| CoreError::Numerical(g.to_string()))?;
        if !reecc_graph::traversal::is_connected(&graph) {
            return Err(CoreError::DisconnectingRemoval { u: e.u, v: e.v, r_uv: 1.0 });
        }
        let mut scratch = WhatIfScratch::new(n);
        let (w, r_uv) = solve_edge_potentials_with(
            &self.graph,
            e,
            self.mutation_cg(),
            &mut scratch.ws,
            &mut scratch.rhs,
        );
        let (sketch, norms) = self.sketch.removed_edge(e, &w, r_uv)?;
        let engine =
            Self::assemble(graph, sketch, self.hull.clone(), self.params, Some(norms))?;
        Ok((engine, r_uv))
    }

    /// Commit an edge: add it to the graph and rebuild the sketch and
    /// hull. `Õ(m·d)` — use [`Self::eccentricity_after_edge`] for cheap
    /// what-ifs and commit only accepted edges.
    ///
    /// # Errors
    ///
    /// Propagates graph/sketch failures.
    pub fn commit_edge(&mut self, edge: Edge) -> Result<(), CoreError> {
        let augmented =
            self.graph.with_edge(edge).map_err(|e| CoreError::Numerical(e.to_string()))?;
        let rebuilt = QueryEngine::build(&augmented, &self.params)?;
        *self = rebuilt;
        Ok(())
    }
}

/// Batch work floor for [`QueryEngine::eccentricity_batch`], in
/// worst-case multiply-adds (`sources × n × d`, a scan that prunes
/// nothing). Pruned scans usually evaluate a few percent of that, so a
/// batch under the floor takes a few milliseconds at most on periphery
/// graphs and stays on the calling thread; at `n = 5 000`, `d = 818` a
/// default 8-request serve flush does.
const PARALLEL_PRUNED_MIN_WORK: usize = 1 << 25;

/// Reusable scratch for [`QueryEngine::eccentricity_after_edge_with`]:
/// the CG workspace, the (zero-filled) right-hand-side buffer, and the
/// base-distance buffer. Keep one per worker (or behind a mutex) so warm
/// what-if queries skip the per-call allocations of the cold path.
#[derive(Debug)]
pub struct WhatIfScratch {
    ws: CgWorkspace,
    rhs: Vec<f64>,
    base: Vec<f64>,
}

impl WhatIfScratch {
    /// Scratch for an `n`-node engine.
    pub fn new(n: usize) -> Self {
        WhatIfScratch { ws: CgWorkspace::new(n), rhs: vec![0.0; n], base: vec![0.0; n] }
    }

    /// Re-zero the right-hand-side buffer. The solve resets it on every
    /// normal return; call this only when recovering the scratch after a
    /// panic (e.g. from a poisoned lock), which may have left the two ±1
    /// source entries set mid-solve.
    pub fn reset(&mut self) {
        self.rhs.fill(0.0);
    }
}

/// Compile-time audit that the long-lived shared types stay thread-safe
/// (`Arc<QueryEngine>` across a worker pool). If a future change
/// introduces interior mutability (`Cell`, `Rc`, raw pointers), this
/// stops compiling rather than failing at a distant call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
    assert_send_sync::<ResistanceSketch>();
    assert_send_sync::<crate::sketch::SketchDiagnostics>();
    assert_send_sync::<SketchParams>();
    assert_send_sync::<EccentricityAnswer>();
    assert_send_sync::<WhatIfScratch>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactResistance;
    use reecc_graph::generators::{
        barabasi_albert, complete, cycle, holme_kim, line, star, with_pendant_periphery,
    };

    fn params() -> SketchParams {
        SketchParams { epsilon: 0.3, seed: 3, ..Default::default() }
    }

    #[test]
    fn engine_matches_free_functions() {
        let g = barabasi_albert(60, 2, 5);
        let p = params();
        let engine = QueryEngine::build(&g, &p).unwrap();
        let free = crate::query::approx_query(&g, &[0, 10, 59], &p).unwrap();
        for &(node, c) in &free {
            assert_eq!(engine.eccentricity(node).value.to_bits(), c.to_bits(), "node {node}");
        }
        let fast = crate::query::fast_query(&g, &[0], &p).unwrap();
        assert_eq!(engine.hull_size(), fast.hull_size());
    }

    #[test]
    fn engine_accuracy_against_exact() {
        let g = barabasi_albert(50, 3, 9);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let exact = ExactResistance::new(&g).unwrap();
        for v in [0usize, 25, 49] {
            let (c, _) = exact.eccentricity(v);
            let ans = engine.eccentricity(v);
            assert!((ans.value - c).abs() <= 0.3 * c, "v={v}: {} vs {c}", ans.value);
            // The all-node maximum is at least the hull-restricted one.
            assert!(engine.sketch().eccentricity_over(v, engine.hull()).0 <= ans.value);
        }
    }

    #[test]
    fn what_if_matches_rebuild() {
        let g = line(12);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let e = Edge::new(0, 11);
        let predicted = engine.eccentricity_after_edge(3, e);
        let exact_after = ExactResistance::new(&g.with_edge(e).unwrap()).unwrap();
        let (truth, _) = exact_after.eccentricity(3);
        assert!(
            (predicted.value - truth).abs() <= 0.3 * truth,
            "{} vs {truth}",
            predicted.value
        );
    }

    #[test]
    fn removal_what_if_matches_rebuild_and_rejects_bridges() {
        let g = cycle(12);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let e = Edge::new(0, 1);
        let mut scratch = WhatIfScratch::new(12);
        let predicted = engine.eccentricity_after_removal_with(&mut scratch, 6, e).unwrap();
        let exact_after = ExactResistance::new(&g.without_edge(e).unwrap()).unwrap();
        let (truth, _) = exact_after.eccentricity(6);
        assert!(
            (predicted.value - truth).abs() <= 0.35 * truth,
            "{} vs {truth}",
            predicted.value
        );
        // A bridge (every edge of a line) is a typed error, caught
        // structurally before any numerics run.
        let g = line(8);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let mut scratch = WhatIfScratch::new(8);
        match engine.eccentricity_after_removal_with(&mut scratch, 0, Edge::new(3, 4)) {
            Err(CoreError::DisconnectingRemoval { u, v, .. }) => assert_eq!((u, v), (3, 4)),
            other => panic!("expected DisconnectingRemoval, got {other:?}"),
        }
        // A non-edge is a plain numerical error.
        let g = cycle(8);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let mut scratch = WhatIfScratch::new(8);
        assert!(matches!(
            engine.eccentricity_after_removal_with(&mut scratch, 0, Edge::new(0, 4)),
            Err(CoreError::Numerical(_))
        ));
    }

    #[test]
    fn commit_updates_the_engine() {
        let g = line(10);
        let mut engine = QueryEngine::build(&g, &params()).unwrap();
        let before = engine.eccentricity(0).value;
        engine.commit_edge(Edge::new(0, 9)).unwrap();
        assert_eq!(engine.graph().edge_count(), 10);
        let after = engine.eccentricity(0).value;
        assert!(after < before, "commit must reduce the end node's eccentricity");
    }

    #[test]
    fn from_parts_roundtrips_a_built_engine() {
        let g = barabasi_albert(50, 2, 11);
        let built = QueryEngine::build(&g, &params()).unwrap();
        let rebuilt = QueryEngine::from_parts(
            built.graph().clone(),
            built.sketch().clone(),
            built.hull().to_vec(),
            *built.params(),
        )
        .unwrap();
        for v in [0usize, 17, 49] {
            assert_eq!(built.eccentricity(v), rebuilt.eccentricity(v));
            assert_eq!(built.resistance(v, 23), rebuilt.resistance(v, 23));
        }
        assert_eq!(built.hull(), rebuilt.hull());
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let g = barabasi_albert(30, 2, 11);
        let built = QueryEngine::build(&g, &params()).unwrap();
        // Sketch over a different node count.
        let small = line(10);
        let err = QueryEngine::from_parts(
            small,
            built.sketch().clone(),
            built.hull().to_vec(),
            *built.params(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Numerical(_)), "{err:?}");
        // Empty hull.
        assert!(QueryEngine::from_parts(
            g.clone(),
            built.sketch().clone(),
            Vec::new(),
            *built.params(),
        )
        .is_err());
        // Out-of-range hull vertex.
        assert!(matches!(
            QueryEngine::from_parts(g, built.sketch().clone(), vec![99], *built.params()),
            Err(CoreError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn warm_what_if_scratch_is_bitwise_identical_and_reusable() {
        let g = barabasi_albert(40, 2, 13);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let mut scratch = WhatIfScratch::new(40);
        for (s, e) in [(0, Edge::new(0, 39)), (7, Edge::new(3, 31)), (39, Edge::new(1, 20))] {
            let cold = engine.eccentricity_after_edge(s, e);
            let warm = engine.eccentricity_after_edge_with(&mut scratch, s, e);
            assert_eq!(cold, warm, "s={s} e={e:?}");
            // The rhs buffer must come back zeroed for the next edge.
            assert!(scratch.rhs.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn with_added_edge_tracks_exact_and_preserves_original() {
        let g = line(12);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let before = engine.resistance(0, 11);
        let e = Edge::new(0, 11);
        let (updated, r_uv) = engine.with_added_edge(e, 555).unwrap();
        // r(0,11) on a path of 12 nodes is 11.
        assert!((r_uv - 11.0).abs() < 1e-6, "r_uv = {r_uv}");
        assert_eq!(updated.graph().edge_count(), 12);
        assert!(updated.graph().has_edge(0, 11));
        // The original engine is untouched (clone-on-write semantics).
        assert!(!engine.graph().has_edge(0, 11));
        assert_eq!(engine.resistance(0, 11), before);
        // Updated estimates meet the ε bound against the exact new graph.
        let exact = ExactResistance::new(updated.graph()).unwrap();
        for u in 0..12 {
            for v in (u + 1)..12 {
                let r = exact.resistance(u, v);
                let rt = updated.resistance(u, v);
                assert!((rt - r).abs() <= 0.3 * r, "r({u},{v}): {rt} vs {r}");
            }
        }
        // Eccentricity tracks the mutated graph too.
        let (truth, _) = exact.eccentricity(0);
        let ans = updated.eccentricity(0);
        assert!((ans.value - truth).abs() <= 0.3 * truth);
    }

    #[test]
    fn with_added_edge_rejects_present_and_out_of_range() {
        let g = line(8);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        assert!(matches!(
            engine.with_added_edge(Edge::new(0, 1), 1),
            Err(CoreError::Numerical(_))
        ));
        assert!(matches!(
            engine.with_added_edge(Edge::new(0, 99), 1),
            Err(CoreError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn with_removed_edge_rejects_bridges_and_missing() {
        let g = line(8);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        // Every edge of a path is a bridge.
        assert!(matches!(
            engine.with_removed_edge(Edge::new(3, 4)),
            Err(CoreError::DisconnectingRemoval { u: 3, v: 4, .. })
        ));
        // Not an edge at all.
        assert!(matches!(
            engine.with_removed_edge(Edge::new(0, 5)),
            Err(CoreError::Numerical(_))
        ));
    }

    #[test]
    fn add_then_remove_round_trip_stays_close() {
        // Add a chord, then remove it again: the pair of rank-1 updates
        // must keep tracking the (restored) exact resistances. The removal
        // leaves a stale projection column, so the tolerance is ε plus the
        // documented residual r/(1−r).
        let g = complete(9);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let e = Edge::new(0, 1);
        let (cut, r_cut) = engine.with_removed_edge(e).unwrap();
        assert_eq!(cut.graph().edge_count(), g.edge_count() - 1);
        let (back, _) = cut.with_added_edge(e, 9001).unwrap();
        assert_eq!(back.graph().edge_count(), g.edge_count());
        let exact = ExactResistance::new(&g).unwrap();
        let tol = 0.3 + 2.0 * r_cut / (1.0 - r_cut);
        for u in 0..9 {
            for v in (u + 1)..9 {
                let r = exact.resistance(u, v);
                let rt = back.resistance(u, v);
                assert!(rt.is_finite());
                assert!((rt - r).abs() <= tol * r, "r({u},{v}): {rt} vs {r}");
            }
        }
    }

    #[test]
    fn engine_caches_resolved_chebyshev_estimate() {
        use reecc_linalg::{ChebyshevConfig, Preconditioner};
        // Satellite of the preconditioning work: the engine resolves the
        // auto-Chebyshev sentinels once at build time and stores the
        // concrete config, so every downstream copy of `params()` (what-if
        // candidate evaluation, serve's re-sketch) reuses the cached
        // eigenvalue estimate instead of re-running the power iteration.
        let g = barabasi_albert(50, 2, 5);
        let mut p = params();
        p.cg.preconditioner = Preconditioner::Chebyshev(ChebyshevConfig::default());
        let engine = QueryEngine::build(&g, &p).unwrap();
        match engine.params().cg.preconditioner {
            Preconditioner::Chebyshev(cfg) => {
                assert!(cfg.is_resolved(), "stored config must be resolved: {cfg:?}")
            }
            other => panic!("preconditioner changed kind: {other:?}"),
        }
        // Resolution is idempotent: rebuilding from the stored params
        // produces the same sketch bits.
        let again = QueryEngine::build(&g, engine.params()).unwrap();
        assert_eq!(again.sketch().flat(), engine.sketch().flat());
    }

    #[test]
    fn batch_threads_resolve_once_per_engine_and_only_above_the_floor() {
        let g = barabasi_albert(250, 2, 21);
        let engine = QueryEngine::build(&g, &SketchParams { threads: 0, ..params() }).unwrap();
        // One source, or work below the floor, never asks the OS.
        let floor = PARALLEL_PRUNED_MIN_WORK;
        assert_eq!(engine.batch_threads(1, usize::MAX), 1);
        assert_eq!(engine.batch_threads(8, floor - 1), 1);
        assert!(engine.batch_threads.get().is_none());
        let resolved = engine.batch_threads(8, floor);
        assert_eq!(resolved, resolve_threads(0));
        assert_eq!(engine.batch_threads.get(), Some(&resolved));
        // Clones keep the answer; a new engine starts unresolved.
        assert_eq!(engine.clone().batch_threads.get(), Some(&resolved));
        let e = g.non_edges()[0];
        let next = engine.with_added_edge(e, 1).unwrap().0;
        assert!(next.batch_threads.get().is_none());
        // An explicit thread count is taken as given.
        let two = QueryEngine::build(&g, &SketchParams { threads: 2, ..params() }).unwrap();
        assert_eq!(two.batch_threads(2, floor), 2);
    }

    #[test]
    fn batch_matrix_is_bitwise_identical_to_sequential() {
        // The determinism matrix: every batch-size × thread-count
        // combination must reproduce the sequential per-source answers
        // bit for bit, and those must be the O(n·d)
        // `ResistanceSketch::eccentricity` on fresh and mutated engines.
        let g = barabasi_albert(250, 2, 21);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let sources: Vec<usize> = (0..16).map(|i| (i * 13) % 250).collect();
        let seq: Vec<_> = sources.iter().map(|&v| engine.eccentricity(v)).collect();
        for (&v, a) in sources.iter().zip(&seq) {
            let want = engine.sketch().eccentricity(v);
            assert_eq!((a.value.to_bits(), a.farthest), (want.0.to_bits(), want.1), "v={v}");
        }
        for batch in [1usize, 2, 7, 16] {
            for threads in [1usize, 2, 4] {
                let got = engine.eccentricity_batch_with(&sources[..batch], threads);
                assert_eq!(got, seq[..batch], "batch={batch} threads={threads}");
            }
        }
        // Default-threaded entry point agrees too.
        assert_eq!(engine.eccentricity_batch(&sources), seq);

        // A pendant-periphery analog (the case pruning is for), a BA graph
        // without a periphery (its worst case), and tie-heavy symmetric
        // graphs.
        let periphery = with_pendant_periphery(&holme_kim(100, 3, 0.6, 5), 20, 3, 6);
        let graphs = [
            ("periphery", periphery),
            ("ba", barabasi_albert(120, 3, 7)),
            ("cycle", cycle(40)),
            ("star", star(40)),
            ("complete", complete(24)),
        ];
        let coarse = SketchParams { epsilon: 0.5, ..params() };
        for (name, g) in graphs {
            let fresh = QueryEngine::build(&g, &coarse).unwrap();
            // One add and one removal every graph admits: add a chord and
            // take it out again, or (complete graph) the reverse.
            let (added, removed) = match g.non_edges().first() {
                Some(&e) => {
                    let added = fresh.with_added_edge(e, 17).unwrap().0;
                    let removed = added.with_removed_edge(e).unwrap().0;
                    (added, removed)
                }
                None => {
                    let e = Edge::new(0, 1);
                    let removed = fresh.with_removed_edge(e).unwrap().0;
                    let added = removed.with_added_edge(e, 17).unwrap().0;
                    (added, removed)
                }
            };
            for (state, engine) in [("fresh", fresh), ("added", added), ("removed", removed)] {
                let n = engine.graph().node_count();
                let bits = |a: EccentricityAnswer| (a.value.to_bits(), a.farthest);
                let reference: Vec<_> = (0..n)
                    .map(|v| {
                        let (value, farthest) = engine.sketch().eccentricity(v);
                        bits(EccentricityAnswer { value, farthest })
                    })
                    .collect();
                for (v, &want) in reference.iter().enumerate() {
                    let got = bits(engine.eccentricity(v));
                    assert_eq!(got, want, "{name}/{state}: v={v}");
                }
                let sources: Vec<usize> = (0..16).map(|i| (i * 7) % n).collect();
                let want: Vec<_> = sources.iter().map(|&v| reference[v]).collect();
                for batch in [1usize, 2, 7, 16] {
                    for threads in [1usize, 2, 4] {
                        let got: Vec<_> = engine
                            .eccentricity_batch_with(&sources[..batch], threads)
                            .into_iter()
                            .map(bits)
                            .collect();
                        assert_eq!(got, want[..batch], "{name}/{state}: b={batch} t={threads}");
                    }
                }
                let got: Vec<_> =
                    engine.eccentricity_batch(&sources).into_iter().map(bits).collect();
                assert_eq!(got, want, "{name}/{state}: default batch");
            }
        }
    }

    #[test]
    fn mutated_engine_rebuilds_panel_and_answers_identically() {
        // A rank-1 mutation must re-take the norm order from the *mutated*
        // embeddings: answers on the new engine have to match a by-hand
        // `ResistanceSketch::eccentricity` scan of its own sketch, not the
        // parent's.
        let g = barabasi_albert(80, 2, 31);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let e = engine.graph().non_edges()[0];
        let (mutated, _) = engine.with_added_edge(e, 777).unwrap();
        for v in [0usize, 17, 79] {
            let ans = mutated.eccentricity(v);
            let (want_c, want_f) = mutated.sketch().eccentricity(v);
            assert_eq!(
                (ans.value.to_bits(), ans.farthest),
                (want_c.to_bits(), want_f),
                "v={v}"
            );
        }
        assert_ne!(
            engine.eccentricity(e.u),
            mutated.eccentricity(e.u),
            "mutation must be visible through the scan"
        );
    }

    #[test]
    fn mutation_norms_order_the_panel_like_a_fresh_build() {
        // The write path hands the norm order the norms its rank-1 pass
        // took.
        // Reassembling the same parts through `from_parts` takes them
        // afresh; every pruned scan must then agree on the answer and on
        // how many nodes it evaluated, which pins the visiting order.
        let g = barabasi_albert(80, 2, 31);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let (added, _) = engine.with_added_edge(engine.graph().non_edges()[3], 5).unwrap();
        let removal = *added.graph().edges().iter().find(|e| e.u == 0).unwrap();
        let (removed, _) = added.with_removed_edge(removal).unwrap();
        for mutated in [&added, &removed] {
            let rebuilt = QueryEngine::from_parts(
                mutated.graph().clone(),
                mutated.sketch().clone(),
                mutated.hull().to_vec(),
                *mutated.params(),
            )
            .unwrap();
            for v in 0..g.node_count() {
                let got = mutated.norm_order().eccentricity_pruned(mutated.sketch(), v);
                let want = rebuilt.norm_order().eccentricity_pruned(rebuilt.sketch(), v);
                assert_eq!(
                    (got.value.to_bits(), got.farthest, got.evaluated),
                    (want.value.to_bits(), want.farthest, want.evaluated),
                    "v={v}"
                );
            }
        }
    }

    #[test]
    fn farthest_node_is_consistent() {
        let g = line(15);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let ans = engine.eccentricity(0);
        // Farthest from an end of a path is (approximately) the other end.
        assert!(ans.farthest >= 12, "farthest {}", ans.farthest);
    }
}
