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

use reecc_graph::{Edge, Graph};
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions};
use reecc_linalg::cg::CgWorkspace;
use reecc_linalg::{CgOptions, Preconditioner};

use crate::panel::HullPanel;
use crate::query::default_hull_budget;
use crate::sketch::{ResistanceSketch, SketchParams};
use crate::update::{
    solve_edge_potentials_with, updated_eccentricity, updated_eccentricity_removed,
};
use crate::{resolve_threads, CoreError};

/// One eccentricity answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccentricityAnswer {
    /// The estimated eccentricity `ĉ(v)`.
    pub value: f64,
    /// The (estimated) farthest node realizing it.
    pub farthest: usize,
}

/// A built sketch + hull pair answering repeated queries.
///
/// The engine is a plain owned value with no interior mutability: every
/// query method takes `&self` and allocates any scratch space it needs
/// locally (see [`Self::eccentricity_after_edge`]). It is therefore
/// `Send + Sync` and intended to be shared across worker threads behind
/// an `Arc` — the `reecc-serve` thread pool does exactly that. A
/// compile-time assertion below keeps that property from regressing.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    graph: Graph,
    sketch: ResistanceSketch,
    hull: Vec<usize>,
    panel: HullPanel,
    params: SketchParams,
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
    /// rank-1 write's pass already took them (so the panel skips its own
    /// sweep over the sketch).
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
        // The panel is rebuilt on *every* construction path — fresh
        // build, snapshot restore, and the rank-1 mutations — so the
        // serving layer's epoch swaps can never serve a panel packed from
        // a previous epoch's embeddings.
        let panel = match norms {
            Some(norms) => HullPanel::with_norms(&sketch, &hull, norms),
            None => HullPanel::build(&sketch, &hull),
        };
        Ok(QueryEngine { graph, sketch, hull, panel, params })
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

    /// The packed hull panel (read-path kernels; see [`HullPanel`]).
    pub fn panel(&self) -> &HullPanel {
        &self.panel
    }

    /// FASTQUERY-style eccentricity of `v`: max over the hull boundary,
    /// `O(l·d)` as one stride-1 sweep of the packed [`HullPanel`] — a
    /// batch of one through [`HullPanel::sweep_chunk`], bitwise identical
    /// to the `sketch.eccentricity_over(v, hull)` gather.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity(&self, v: usize) -> EccentricityAnswer {
        let mut out = [(f64::NEG_INFINITY, usize::MAX)];
        self.panel.sweep_chunk(&self.sketch, &[v], &mut out);
        let [(value, farthest)] = out;
        EccentricityAnswer { value, farthest }
    }

    /// Batched FASTQUERY: answer a block of sources with panel sweeps
    /// shared across [`crate::panel::MAX_LANES`]-wide lanes. Sequential
    /// unless the batch's work (`sources × h × d`) clears a floor of 2¹⁶
    /// multiply-adds; above it the sources are split over
    /// [`resolve_threads`]`(params.threads)` contiguous chunks. Every
    /// answer is bitwise identical to [`Self::eccentricity`] for every
    /// batch-size × thread-count combination: per-source results are
    /// independent, and chunking only changes which thread computes them.
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_batch(&self, sources: &[usize]) -> Vec<EccentricityAnswer> {
        let work = sources.len() * self.panel.len() * self.panel.dim();
        let threads = self.batch_threads(sources.len(), work, PARALLEL_BATCH_MIN_WORK);
        self.eccentricity_batch_with(sources, threads)
    }

    /// [`Self::eccentricity_batch`] on exactly `min(threads, sources)`
    /// contiguous source chunks (the determinism test matrix drives this
    /// directly).
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_batch_with(
        &self,
        sources: &[usize],
        threads: usize,
    ) -> Vec<EccentricityAnswer> {
        let mut out = vec![(f64::NEG_INFINITY, usize::MAX); sources.len()];
        fan_out(sources, &mut out, threads, |src, dst| {
            self.panel.sweep_chunk(&self.sketch, src, dst)
        });
        out.into_iter()
            .map(|(value, farthest)| EccentricityAnswer { value, farthest })
            .collect()
    }

    /// APPROXQUERY-style eccentricity: the maximum over **all** nodes,
    /// for callers that want the hull bypassed — the serving tier for
    /// mutated live views, whose hull is stale. Runs the panel's
    /// norm-pruned scan ([`HullPanel::eccentricity_pruned`]) on the
    /// calling thread: bitwise the answer of the `O(n·d)`
    /// [`ResistanceSketch::eccentricity`], usually from a few percent of
    /// the nodes (all of them in the worst case, on graphs without a
    /// low-degree periphery; DESIGN §15.5).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity_full_scan(&self, v: usize) -> EccentricityAnswer {
        let scan = self.panel.eccentricity_pruned(&self.sketch, v);
        EccentricityAnswer { value: scan.value, farthest: scan.farthest }
    }

    /// Batched full scan: [`Self::eccentricity_full_scan`] for a block
    /// of sources. Sequential unless the batch's worst-case work
    /// (`sources × n × d`) clears a floor of 2²⁵ multiply-adds; above it
    /// the sources are split over [`resolve_threads`]`(params.threads)`
    /// chunks.
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_full_scan_batch(&self, sources: &[usize]) -> Vec<EccentricityAnswer> {
        let work = sources.len() * self.sketch.node_count() * self.sketch.dimension();
        let threads = self.batch_threads(sources.len(), work, PARALLEL_PRUNED_MIN_WORK);
        self.eccentricity_full_scan_batch_with(sources, threads)
    }

    /// Threads for a default-threaded batch of `sources` whose worst-case
    /// `work` is known: one for a single source or below `floor`, where a
    /// spawn costs more than it saves, else
    /// [`resolve_threads`]`(params.threads)`. The checks come first
    /// because resolving `threads: 0` asks the OS each time (about 20 µs
    /// on a 2-vCPU Linux VM), as long as a small panel sweep.
    fn batch_threads(&self, sources: usize, work: usize, floor: usize) -> usize {
        if sources < 2 || work < floor {
            1
        } else {
            resolve_threads(self.params.threads)
        }
    }

    /// [`Self::eccentricity_full_scan_batch`] on exactly
    /// `min(threads, sources)` contiguous source chunks (the determinism
    /// test matrix drives this directly). Each source's scan stays
    /// sequential, so no answer's bits depend on the batch shape or the
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if a source id is out of range.
    pub fn eccentricity_full_scan_batch_with(
        &self,
        sources: &[usize],
        threads: usize,
    ) -> Vec<EccentricityAnswer> {
        let mut out = vec![EccentricityAnswer { value: 0.0, farthest: 0 }; sources.len()];
        fan_out(sources, &mut out, threads, |src, dst| {
            for (&v, slot) in src.iter().zip(dst.iter_mut()) {
                *slot = self.eccentricity_full_scan(v);
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
        // Norms-decomposed base fill: the panel's precomputed per-node
        // norms turn each base distance into one dot product instead of
        // a fused subtract-square-add recomputed from scratch per call.
        self.panel.resistances_from_norms_into(&self.sketch, &mut scratch.base, s);
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
        self.panel.resistances_from_norms_into(&self.sketch, &mut scratch.base, s);
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
    /// embedding, so hull-restricted eccentricities lose their FASTQUERY
    /// guarantee until a re-sketch. Callers that mutate should answer
    /// eccentricity queries with [`Self::eccentricity_full_scan`]: the
    /// new engine's panel re-sorts the nodes by their mutated norms, and
    /// the update keeps the embeddings' centroid at the origin (`w ⊥ 𝟏`),
    /// so the norm-pruned scan stays exact and stays cheap.
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

/// Answer `sources` into `out` (same length) by running `kernel` on
/// `min(threads, sources)` contiguous chunks, each on its own scoped
/// thread, or on the calling thread when that is one chunk. The chunk
/// boundaries only decide which thread computes an answer, never its
/// bits: both batch entry points keep each source's kernel sequential.
fn fan_out<T: Send>(
    sources: &[usize],
    out: &mut [T],
    threads: usize,
    kernel: impl Fn(&[usize], &mut [T]) + Sync,
) {
    let threads = threads.clamp(1, sources.len().max(1));
    if threads == 1 {
        kernel(sources, out);
        return;
    }
    let chunk = sources.len().div_ceil(threads);
    let kernel = &kernel;
    std::thread::scope(|scope| {
        for (src, dst) in sources.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || kernel(src, dst));
        }
    });
}

/// Batch work floor (`sources × h × d` multiply-adds) under which
/// [`QueryEngine::eccentricity_batch`] stays single-threaded:
/// typical serve-side coalesced batches finish in microseconds and
/// thread spawns would cost more than the sweep.
const PARALLEL_BATCH_MIN_WORK: usize = 1 << 16;

/// Batch work floor for [`QueryEngine::eccentricity_full_scan_batch`],
/// in worst-case multiply-adds (`sources × n × d`, a scan that prunes
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
        let free = crate::query::fast_query(&g, &[0, 10, 59], &p).unwrap();
        for &(node, c) in &free.results {
            let ans = engine.eccentricity(node);
            assert!((ans.value - c).abs() < 1e-12, "node {node}");
        }
        assert_eq!(engine.hull_size(), free.hull_size());
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
            // Full scan is at least as large as hull-restricted.
            assert!(engine.eccentricity_full_scan(v).value >= ans.value - 1e-12);
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
        // Full-scan eccentricity tracks the mutated graph too.
        let (truth, _) = exact.eccentricity(0);
        let ans = updated.eccentricity_full_scan(0);
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
    fn batch_matrix_is_bitwise_identical_to_sequential() {
        // The determinism matrix: every batch-size × thread-count
        // combination must reproduce the sequential per-source answers
        // bit for bit — the hull-panel batch on a BA graph, and the
        // norm-pruned full scan (single and batched) against the O(n·d)
        // `ResistanceSketch::eccentricity` on fresh and mutated engines.
        let g = barabasi_albert(250, 2, 21);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let sources: Vec<usize> = (0..16).map(|i| (i * 13) % 250).collect();
        let seq: Vec<_> = sources.iter().map(|&v| engine.eccentricity(v)).collect();
        for (&v, a) in sources.iter().zip(&seq) {
            let want = engine.sketch().eccentricity_over(v, engine.hull());
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
                    let got = bits(engine.eccentricity_full_scan(v));
                    assert_eq!(got, want, "{name}/{state}: v={v}");
                }
                let sources: Vec<usize> = (0..16).map(|i| (i * 7) % n).collect();
                let want: Vec<_> = sources.iter().map(|&v| reference[v]).collect();
                for batch in [1usize, 2, 7, 16] {
                    for threads in [1usize, 2, 4] {
                        let got: Vec<_> = engine
                            .eccentricity_full_scan_batch_with(&sources[..batch], threads)
                            .into_iter()
                            .map(bits)
                            .collect();
                        assert_eq!(got, want[..batch], "{name}/{state}: b={batch} t={threads}");
                    }
                }
                let got: Vec<_> = engine
                    .eccentricity_full_scan_batch(&sources)
                    .into_iter()
                    .map(bits)
                    .collect();
                assert_eq!(got, want, "{name}/{state}: default batch");
            }
        }
    }

    #[test]
    fn mutated_engine_rebuilds_panel_and_answers_identically() {
        // A rank-1 mutation must repack the panel from the *mutated*
        // embeddings: hull answers on the new engine have to match a
        // by-hand `eccentricity_over` sweep of its own sketch, not the
        // parent's.
        let g = barabasi_albert(80, 2, 31);
        let engine = QueryEngine::build(&g, &params()).unwrap();
        let e = engine.graph().non_edges()[0];
        let (mutated, _) = engine.with_added_edge(e, 777).unwrap();
        for v in [0usize, 17, 79] {
            let ans = mutated.eccentricity(v);
            let (want_c, want_f) = mutated.sketch().eccentricity_over(v, mutated.hull());
            assert_eq!((ans.value, ans.farthest), (want_c, want_f), "v={v}");
        }
        assert_ne!(
            engine.eccentricity(e.u),
            mutated.eccentricity(e.u),
            "mutation must be visible through the panel"
        );
    }

    #[test]
    fn mutation_norms_order_the_panel_like_a_fresh_build() {
        // The write path hands the panel the norms its rank-1 pass took.
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
                let got = mutated.panel().eccentricity_pruned(mutated.sketch(), v);
                let want = rebuilt.panel().eccentricity_pruned(rebuilt.sketch(), v);
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
