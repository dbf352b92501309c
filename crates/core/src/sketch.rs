//! APPROXER: the JL + Laplacian-solver resistance sketch (paper, Lemma 5.1).
//!
//! The sketch is the `d×n` matrix `X̃ ≈ Q B L†` with
//! `Q ∈ {±1/√d}^{d×m}` and `d = ⌈24 ln n / ε²⌉`, such that with high
//! probability `r(u,v) ≈_ε ‖X̃(e_u − e_v)‖²` for every pair.
//!
//! Construction: row `i` of `Q B` is formed edge-by-edge in `O(m)` (see
//! [`reecc_linalg::jl`]), then `L z = (QB)ᵀ_i` is solved with the
//! preconditioned CG solver; `z` is row `i` of `X̃`. Rows are independent,
//! so they are solved in *blocks* of right-hand sides through the
//! multi-RHS blocked CG ([`reecc_linalg::block_cg`]), and the blocks are
//! distributed over `std::thread::scope` worker threads. Block boundaries
//! depend only on `d` and the block size — never on the thread count —
//! and the blocked solver is bitwise identical to the scalar one per
//! column, so every combination of `threads` × `block_size` produces the
//! same sketch bit-for-bit.
//!
//! Storage is one flat node-major buffer (see [`ResistanceSketch::flat`]):
//! the embedding of node `u` is the contiguous slice `data[u·d..(u+1)·d]`,
//! which turns every query-time `‖X̃(e_u − e_v)‖²` evaluation into a
//! stride-1 scan of two slices.

use reecc_graph::traversal::is_connected;
use reecc_graph::{Edge, Graph};
use reecc_hull::PointsView;
use reecc_linalg::block::BlockVectors;
use reecc_linalg::block_cg::{
    solve_laplacian_block, solve_laplacian_block_mixed, BlockCgWorkspace,
};
use reecc_linalg::cg::{solve_laplacian, CgOptions, CgWorkspace};
use reecc_linalg::jl::{jl_dimension_scaled, projected_incidence_rows, projection_column};
use reecc_linalg::precond::resolve_preconditioner;
use reecc_linalg::recovery::{RecoveryPolicy, RecoverySolver};
use reecc_linalg::{vector, CompactAdjacency, LaplacianOp};

use crate::CoreError;

/// Default number of right-hand sides per blocked-CG batch (the
/// `block_size: 0` resolution) on graphs small enough that the SpMM's
/// node-major gather buffer (`n·b·8` bytes) stays L2-resident. Wide
/// enough to amortize the adjacency sweep and feed independent
/// accumulator chains.
pub const DEFAULT_BLOCK_SIZE: usize = 8;

/// Narrower default once `n · DEFAULT_BLOCK_SIZE · 8` bytes outgrows a
/// typical L2 (the gather buffer starts missing and the per-neighbor
/// gathers fetch whole cache lines from further away, eating the
/// adjacency-amortization win — see DESIGN.md §9 for measurements).
pub const LARGE_GRAPH_BLOCK_SIZE: usize = 4;

/// Node count above which `block_size: 0` resolves to
/// [`LARGE_GRAPH_BLOCK_SIZE`]: the crossover where `n · 8 · 8` bytes
/// (the width-8 gather buffer) exceeds ~1.25 MiB of L2.
pub const BLOCK_SIZE_CROSSOVER_NODES: usize = 20_000;

/// Mixed-precision crossover: the inner f32 solve halves every gather
/// byte (`n · b · 4` instead of `n · b · 8`), so the width-8 node-major
/// buffer stays L2-resident out to twice as many nodes. `block_size: 0`
/// under [`Precision::Mixed`] therefore keeps [`DEFAULT_BLOCK_SIZE`] up
/// to this node count before narrowing.
pub const MIXED_BLOCK_SIZE_CROSSOVER_NODES: usize = 40_000;

/// The adaptive blocked-CG width rule, shared by the sketch build and the
/// optimizers' candidate evaluator so both make the same cache
/// assumption: an explicit `block_size` is taken verbatim, and `0`
/// resolves to [`DEFAULT_BLOCK_SIZE`] up to the precision's crossover
/// node count ([`BLOCK_SIZE_CROSSOVER_NODES`] for f64,
/// [`MIXED_BLOCK_SIZE_CROSSOVER_NODES`] for mixed) and to
/// [`LARGE_GRAPH_BLOCK_SIZE`] above it.
pub fn block_width(block_size: usize, precision: Precision, n: usize) -> usize {
    let crossover = match precision {
        Precision::F64 => BLOCK_SIZE_CROSSOVER_NODES,
        Precision::Mixed => MIXED_BLOCK_SIZE_CROSSOVER_NODES,
    };
    match block_size {
        0 if n > crossover => LARGE_GRAPH_BLOCK_SIZE,
        0 => DEFAULT_BLOCK_SIZE,
        b => b,
    }
}

/// Floating-point strategy for the sketch's row solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-`f64` CG throughout — the bitwise-stable reference mode.
    /// Sketches built in this mode are bit-identical to every build since
    /// the kernel layer landed, regardless of `threads` or `block_size`.
    #[default]
    F64,
    /// `f32` blocked-CG sweeps wrapped in `f64` iterative refinement
    /// ([`reecc_linalg::block_cg::solve_laplacian_block_mixed`]): the
    /// memory-bound inner sweeps move half the bytes, and the outer `f64`
    /// residual loop restores the full `ε` tolerance. Columns the
    /// refinement cannot finish fall through to the ordinary `f64`
    /// escalation ladder. Deterministic across `threads` × `block_size`
    /// for a fixed parameter set, but *not* bit-identical to [`Self::F64`]
    /// builds — only `ε`-equivalent.
    Mixed,
}

/// Parameters controlling sketch construction.
#[derive(Debug, Clone, Copy)]
pub struct SketchParams {
    /// Target multiplicative error `ε` of resistance estimates.
    pub epsilon: f64,
    /// Multiplier on the paper's `⌈24 ln n / ε²⌉` dimension formula
    /// (`1.0` = faithful; harnesses use smaller values because the JL
    /// constant is conservative — recorded per experiment).
    pub dimension_scale: f64,
    /// Optional hard cap on the sketch dimension.
    pub max_dimension: Option<usize>,
    /// RNG seed for the `±1/√d` projection.
    pub seed: u64,
    /// Worker threads for the row solves; `0` = use available parallelism
    /// (resolved through [`crate::resolve_threads`]).
    pub threads: usize,
    /// Right-hand sides per blocked-CG batch: `0` = adaptive default
    /// ([`DEFAULT_BLOCK_SIZE`], narrowing to [`LARGE_GRAPH_BLOCK_SIZE`]
    /// past [`BLOCK_SIZE_CROSSOVER_NODES`] nodes), `1` = the scalar
    /// single-RHS path, anything else the literal block width. Every
    /// setting produces a bitwise-identical sketch — the knob only trades
    /// cache footprint against solve throughput.
    pub block_size: usize,
    /// Floating-point strategy for the row solves (see [`Precision`]).
    pub precision: Precision,
    /// CG solver options for each row.
    pub cg: CgOptions,
    /// Escalation-ladder policy for repairing rows whose first solve did
    /// not converge or produced non-finite values (see
    /// [`reecc_linalg::recovery`]).
    pub recovery: RecoveryPolicy,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            epsilon: 0.3,
            dimension_scale: 1.0,
            max_dimension: None,
            seed: 42,
            threads: 0,
            block_size: 0,
            precision: Precision::F64,
            cg: CgOptions::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl SketchParams {
    /// Convenience constructor with the given `ε` and defaults elsewhere.
    pub fn with_epsilon(epsilon: f64) -> Self {
        SketchParams { epsilon, ..Default::default() }
    }

    /// The sketch dimension this parameter set produces for an `n`-node
    /// graph.
    pub fn dimension_for(&self, n: usize) -> usize {
        let d = jl_dimension_scaled(n, self.epsilon, self.dimension_scale);
        match self.max_dimension {
            Some(cap) => d.min(cap.max(1)),
            None => d,
        }
    }

    /// The blocked-CG batch width this parameter set resolves to for an
    /// `n`-node graph ([`block_width`]). The choice never changes the
    /// sketch bits, only throughput, so adapting it to the graph size is
    /// safe.
    pub fn effective_block_size(&self, n: usize) -> usize {
        block_width(self.block_size, self.precision, n)
    }

    /// A copy of `self` with any auto-Chebyshev sentinels in the
    /// preconditioner replaced by concrete values for `g` (one short,
    /// deterministic power iteration — see
    /// [`reecc_linalg::resolve_preconditioner`]); all other
    /// preconditioners pass through untouched. Idempotent, so callers
    /// that receive already-resolved params pay nothing.
    pub fn resolved_for(&self, g: &Graph) -> SketchParams {
        let mut p = *self;
        p.cg.preconditioner = resolve_preconditioner(&LaplacianOp::new(g), p.cg.preconditioner);
        p
    }

    fn worker_count(&self, jobs: usize) -> usize {
        crate::resolve_threads(self.threads).clamp(1, jobs.max(1))
    }
}

/// Per-build health record: what the row solves did, which rows the
/// escalation ladder repaired, and which remain degraded. FASTQUERY's
/// degradation policy keys off [`SketchDiagnostics::unconverged_fraction`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchDiagnostics {
    /// Sketch dimension `d` as requested (before any row drops).
    pub rows: usize,
    /// Rows whose first CG solve met the tolerance.
    pub converged_first_try: usize,
    /// Rows the escalation ladder brought to convergence.
    pub repaired: Vec<usize>,
    /// Subset of `repaired` that needed the dense pseudoinverse fallback.
    pub fallback_rows: Vec<usize>,
    /// Rows removed because they stayed non-finite even after the ladder;
    /// the surviving rows are rescaled by `√(d/(d−k))` so the resistance
    /// estimator stays unbiased.
    pub dropped: Vec<usize>,
    /// Rows kept (finite) but still short of the tolerance after the
    /// ladder — an accuracy downgrade the query layer can react to.
    pub unconverged: Vec<usize>,
}

impl SketchDiagnostics {
    /// Fraction of rows that are degraded (unconverged or dropped).
    pub fn unconverged_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            (self.unconverged.len() + self.dropped.len()) as f64 / self.rows as f64
        }
    }

    /// Whether every row ended up converged (possibly after repair).
    pub fn fully_converged(&self) -> bool {
        self.unconverged.is_empty() && self.dropped.is_empty()
    }

    /// Whether any repair work happened at all.
    pub fn repaired_any(&self) -> bool {
        !self.repaired.is_empty() || !self.dropped.is_empty()
    }
}

/// The APPROXER resistance sketch `X̃ ∈ R^{d×n}`.
///
/// Stored as one flat node-major buffer: the embedding of node `u`
/// (column `u` of `X̃`) is the contiguous slice `data[u·d..(u+1)·d]`.
/// Query-time distance evaluations scan two contiguous slices (SIMD
/// friendly), and [`Self::point_view`] lends the buffer to the hull
/// layer without a copy or a transpose — [`PointsView`] reads the
/// identical layout.
#[derive(Debug, Clone)]
pub struct ResistanceSketch {
    /// Node-major flat storage; entry `(i, u)` of `X̃` at `data[u*d + i]`.
    data: Vec<f64>,
    /// Surviving sketch dimension `d` (the per-node stride).
    d: usize,
    n: usize,
    epsilon: f64,
    /// How many of the `d` row solves met the CG tolerance (diagnostic —
    /// a shortfall degrades accuracy but is not an error).
    converged_rows: usize,
    /// Total CG iterations the build spent (first-pass solves plus any
    /// escalation-ladder repairs) — bench telemetry, 0 when reassembled
    /// from parts.
    solve_iterations: usize,
    diagnostics: SketchDiagnostics,
}

/// Pack row-major sketch rows (`d` rows of length `n`) into the flat
/// node-major layout.
fn pack_node_major(rows: &[Vec<f64>], n: usize) -> Vec<f64> {
    let d = rows.len();
    let mut data = vec![0.0; n * d];
    for (i, row) in rows.iter().enumerate() {
        for (u, &x) in row.iter().enumerate() {
            data[u * d + i] = x;
        }
    }
    data
}

impl ResistanceSketch {
    /// Build the sketch for a connected graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on invalid
    /// input.
    pub fn build(g: &Graph, params: &SketchParams) -> Result<Self, CoreError> {
        let n = g.node_count();
        if n == 0 {
            return Err(CoreError::EmptyGraph);
        }
        if !is_connected(g) {
            return Err(CoreError::Disconnected);
        }
        let d = params.dimension_for(n);
        // Resolve any auto-Chebyshev sentinels once up front: every block
        // and every worker then shares the same eigenvalue estimate (one
        // fixed-length power iteration per build, not per row), and the
        // resolved value is deterministic. Concrete preconditioners pass
        // through untouched, so this is a no-op for the default Jacobi
        // configuration and for params already resolved by the engine.
        let mut params = *params;
        params.cg.preconditioner =
            resolve_preconditioner(&LaplacianOp::new(g), params.cg.preconditioner);
        let params = &params;
        // (QB) rows are generated sequentially (single RNG stream, fully
        // reproducible), solves run in parallel.
        let rhs = projected_incidence_rows(g, d, params.seed);
        let block = params.effective_block_size(n);
        let mixed = params.precision == Precision::Mixed;
        let mut rows: Vec<Vec<f64>>;
        let mut row_ok: Vec<bool>;
        let mut solve_iterations: usize;
        if block <= 1 && !mixed {
            // Scalar single-RHS path: one CG solve per JL row, workers over
            // contiguous chunks of rows.
            let workers = params.worker_count(d);
            rows = Vec::with_capacity(d);
            row_ok = Vec::with_capacity(d);
            solve_iterations = 0;
            if workers <= 1 {
                let op = LaplacianOp::new(g);
                let mut ws = CgWorkspace::new(n);
                for b in &rhs {
                    let out = solve_laplacian(&op, b, params.cg, &mut ws);
                    row_ok.push(out.converged);
                    solve_iterations += out.iterations;
                    rows.push(out.solution);
                }
            } else {
                let chunk = d.div_ceil(workers);
                let results: Vec<(Vec<Vec<f64>>, Vec<bool>, usize)> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = rhs
                            .chunks(chunk)
                            .map(|batch| {
                                scope.spawn(move || {
                                    let op = LaplacianOp::new(g);
                                    let mut ws = CgWorkspace::new(n);
                                    let mut out_rows = Vec::with_capacity(batch.len());
                                    let mut ok = Vec::with_capacity(batch.len());
                                    let mut iters = 0usize;
                                    for b in batch {
                                        let out = solve_laplacian(&op, b, params.cg, &mut ws);
                                        ok.push(out.converged);
                                        iters += out.iterations;
                                        out_rows.push(out.solution);
                                    }
                                    (out_rows, ok, iters)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("sketch worker panicked"))
                            .collect()
                    });
                for (batch_rows, ok, iters) in results {
                    row_ok.extend(ok);
                    rows.extend(batch_rows);
                    solve_iterations += iters;
                }
            }
        } else {
            // Blocked multi-RHS path: rows are grouped into blocks of up to
            // `block` right-hand sides and each block is solved in one
            // lockstep blocked-CG call (single adjacency sweep per
            // iteration across the whole block). Block boundaries depend
            // only on `d` and `block` — never on the worker count — so the
            // sketch is bitwise identical for every `threads` setting.
            // Mixed precision always takes this path (the refinement loop
            // is inherently blocked); per-column independence of the inner
            // solver keeps it deterministic across block widths too.
            let blocks: Vec<&[Vec<f64>]> = rhs.chunks(block.max(1)).collect();
            let workers = params.worker_count(blocks.len());
            // One u32 adjacency mirror shared (read-only) by every worker:
            // blocked sweeps stream the index list once per iteration, so
            // halving its width halves the dominant traffic. Bitwise-
            // neutral — index width never touches the arithmetic.
            let compact = CompactAdjacency::try_new(g);
            let solve_blocks = |assigned: &[&[Vec<f64>]]| {
                let op = match compact.as_ref() {
                    Some(adj) => LaplacianOp::with_compact(g, adj),
                    None => LaplacianOp::new(g),
                };
                let mut ws = BlockCgWorkspace::new();
                let mut out_rows = Vec::new();
                let mut ok = Vec::new();
                let mut iters = 0usize;
                for batch in assigned {
                    let rhs_block = BlockVectors::from_columns(batch);
                    let outcome = if mixed {
                        solve_laplacian_block_mixed(&op, &rhs_block, params.cg, &mut ws)
                    } else {
                        solve_laplacian_block(&op, &rhs_block, params.cg, &mut ws)
                    };
                    iters += outcome.total_iterations();
                    for j in 0..batch.len() {
                        ok.push(outcome.converged[j]);
                        out_rows.push(outcome.solutions.column_to_vec(j));
                    }
                }
                (out_rows, ok, iters)
            };
            if workers <= 1 {
                let (out_rows, ok, iters) = solve_blocks(&blocks);
                rows = out_rows;
                row_ok = ok;
                solve_iterations = iters;
            } else {
                let chunk = blocks.len().div_ceil(workers);
                let results: Vec<(Vec<Vec<f64>>, Vec<bool>, usize)> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = blocks
                            .chunks(chunk)
                            .map(|assigned| scope.spawn(|| solve_blocks(assigned)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("sketch worker panicked"))
                            .collect()
                    });
                rows = Vec::with_capacity(d);
                row_ok = Vec::with_capacity(d);
                solve_iterations = 0;
                for (batch_rows, ok, iters) in results {
                    row_ok.extend(ok);
                    rows.extend(batch_rows);
                    solve_iterations += iters;
                }
            }
        }

        // Repair pass: every non-converged or NaN/Inf-polluted row goes
        // through the escalation ladder. Sequential on purpose — repairs
        // are rare and the ladder's dense fallback is cached across rows.
        let mut diagnostics = SketchDiagnostics {
            rows: d,
            converged_first_try: row_ok
                .iter()
                .zip(&rows)
                .filter(|(&ok, row)| ok && row_is_finite(row))
                .count(),
            ..SketchDiagnostics::default()
        };
        let needs_repair: Vec<usize> =
            (0..d).filter(|&i| !row_ok[i] || !row_is_finite(&rows[i])).collect();
        if !needs_repair.is_empty() {
            let op = LaplacianOp::new(g);
            let mut solver = RecoverySolver::new(op, params.cg, params.recovery);
            for i in needs_repair {
                let (solution, report) = solver.solve(&rhs[i]);
                solve_iterations += report.iterations;
                // A row is usable only if it is finite and actually carries
                // information (an all-zero iterate against a nonzero rhs is
                // the ladder saying "every attempt was poisoned").
                let usable =
                    row_is_finite(&solution) && (!is_zero(&solution) || is_zero(&rhs[i]));
                if usable && report.converged {
                    rows[i] = solution;
                    diagnostics.repaired.push(i);
                    if report.fallback_used {
                        diagnostics.fallback_rows.push(i);
                    }
                } else if usable {
                    // Best-effort iterate: finite but short of tolerance.
                    rows[i] = solution;
                    diagnostics.unconverged.push(i);
                } else {
                    diagnostics.dropped.push(i);
                }
            }
        }

        // Drop irreparably non-finite rows and rescale the survivors by
        // √(d/(d−k)): each row contributes an unbiased 1/d share of the
        // resistance estimate, so the rescale keeps E[r̃] on target.
        if !diagnostics.dropped.is_empty() {
            let kept = d - diagnostics.dropped.len();
            if kept == 0 {
                rows.clear();
            } else {
                let scale = (d as f64 / kept as f64).sqrt();
                let dropped: std::collections::BTreeSet<usize> =
                    diagnostics.dropped.iter().copied().collect();
                let mut filtered = Vec::with_capacity(kept);
                for (i, mut row) in rows.into_iter().enumerate() {
                    if dropped.contains(&i) {
                        continue;
                    }
                    for x in &mut row {
                        *x *= scale;
                    }
                    filtered.push(row);
                }
                rows = filtered;
            }
        }

        let converged_rows = d - diagnostics.unconverged.len() - diagnostics.dropped.len();
        let kept = rows.len();
        let data = pack_node_major(&rows, n);
        Ok(ResistanceSketch {
            data,
            d: kept,
            n,
            epsilon: params.epsilon,
            converged_rows,
            solve_iterations,
            diagnostics,
        })
    }

    /// Reassemble a sketch from previously exported parts (the snapshot
    /// path in `reecc-serve`): the surviving rows, the graph order, the
    /// `ε` the build targeted, and the build diagnostics. The invariants
    /// [`Self::build`] guarantees are re-checked rather than trusted:
    /// every row must have length `n` and be finite, and the diagnostics
    /// partition must account for exactly the rows present
    /// (`rows.len() + dropped = diagnostics.rows`).
    ///
    /// # Errors
    ///
    /// [`CoreError::Numerical`] naming the violated invariant.
    pub fn from_parts(
        rows: Vec<Vec<f64>>,
        node_count: usize,
        epsilon: f64,
        diagnostics: SketchDiagnostics,
    ) -> Result<Self, CoreError> {
        if node_count == 0 {
            return Err(CoreError::EmptyGraph);
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::Numerical(format!(
                "sketch epsilon must be in (0, 1), got {epsilon}"
            )));
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != node_count {
                return Err(CoreError::Numerical(format!(
                    "sketch row {i} has length {} but the graph has {node_count} nodes",
                    row.len()
                )));
            }
            if !row_is_finite(row) {
                return Err(CoreError::Numerical(format!(
                    "sketch row {i} contains non-finite entries"
                )));
            }
        }
        if rows.len() + diagnostics.dropped.len() != diagnostics.rows {
            return Err(CoreError::Numerical(format!(
                "diagnostics claim {} rows with {} dropped, but {} rows are present",
                diagnostics.rows,
                diagnostics.dropped.len(),
                rows.len()
            )));
        }
        let degraded = diagnostics.unconverged.len() + diagnostics.dropped.len();
        if degraded > diagnostics.rows {
            return Err(CoreError::Numerical(
                "diagnostics report more degraded rows than exist".to_string(),
            ));
        }
        let converged_rows = diagnostics.rows - degraded;
        let d = rows.len();
        let data = pack_node_major(&rows, node_count);
        Ok(ResistanceSketch {
            data,
            d,
            n: node_count,
            epsilon,
            converged_rows,
            solve_iterations: 0,
            diagnostics,
        })
    }

    /// Sketch dimension `d`.
    pub fn dimension(&self) -> usize {
        self.d
    }

    /// Graph order `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The `ε` the sketch was built for.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of row solves that met the CG tolerance (counting rows the
    /// escalation ladder repaired).
    pub fn converged_rows(&self) -> usize {
        self.converged_rows
    }

    /// Per-build health record: repairs, fallbacks, and remaining degraded
    /// rows.
    pub fn diagnostics(&self) -> &SketchDiagnostics {
        &self.diagnostics
    }

    /// Total CG iterations the build spent across first-pass solves and
    /// escalation-ladder repairs (bench telemetry; `0` for sketches
    /// reassembled via [`Self::from_parts`]).
    pub fn solve_iterations(&self) -> usize {
        self.solve_iterations
    }

    /// The flat node-major storage: entry `(i, u)` of `X̃` lives at
    /// `flat()[u * stride() + i]`.
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// The per-node stride of [`Self::flat`] — equal to
    /// [`Self::dimension`].
    pub fn stride(&self) -> usize {
        self.d
    }

    /// The embedding of node `u` (column `u` of `X̃`) as a contiguous
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn embedding(&self, u: usize) -> &[f64] {
        assert!(u < self.n, "node out of range");
        &self.data[u * self.d..(u + 1) * self.d]
    }

    /// Reconstruct the row-major `d×n` rows (row `i` is row `i` of `X̃`).
    /// Allocates; the snapshot writer uses this to keep the on-disk format
    /// row-major while in-memory storage is node-major.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.d).map(|i| (0..self.n).map(|u| self.data[u * self.d + i]).collect()).collect()
    }

    /// Estimated resistance `r̃(u, v) = ‖X̃(e_u − e_v)‖²`, `O(d)` over two
    /// contiguous slices.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn resistance(&self, u: usize, v: usize) -> f64 {
        assert!(u < self.n && v < self.n, "node out of range");
        vector::dist_sq(self.embedding(u), self.embedding(v))
    }

    /// Estimated resistances from `s` to every node, `O(n·d)`.
    pub fn resistances_from(&self, s: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.resistances_from_into(&mut out, s);
        out
    }

    /// In-place variant of [`Self::resistances_from`]: fills a caller-owned
    /// buffer (bitwise identical values) so per-candidate hot loops reuse
    /// one allocation across calls.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `out.len() != n`.
    pub fn resistances_from_into(&self, out: &mut [f64], s: usize) {
        assert!(s < self.n, "node out of range");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let src = s * self.d;
        for (u, o) in out.iter_mut().enumerate() {
            *o = vector::dist_sq(
                &self.data[src..src + self.d],
                &self.data[u * self.d..(u + 1) * self.d],
            );
        }
    }

    /// APPROXQUERY inner step: `c̄(s) = max_j r̃(s, j)` over all nodes,
    /// with the farthest node (the first maximum in index order).
    /// `O(n·d)`, allocation-free. The reference for the norm-pruned scan
    /// serving uses ([`crate::panel::HullPanel::eccentricity_pruned`]),
    /// which returns the same bits.
    pub fn eccentricity(&self, s: usize) -> (f64, usize) {
        assert!(s < self.n, "node out of range");
        let src = &self.data[s * self.d..(s + 1) * self.d];
        let mut best = (f64::NEG_INFINITY, 0);
        for u in 0..self.n {
            let r = vector::dist_sq(src, &self.data[u * self.d..(u + 1) * self.d]);
            if r > best.0 {
                best = (r, u);
            }
        }
        best
    }

    /// FASTQUERY inner step: `ĉ(s) = max_{j ∈ candidates} r̃(s, j)`,
    /// `O(|candidates|·d)`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or contains out-of-range ids.
    pub fn eccentricity_over(&self, s: usize, candidates: &[usize]) -> (f64, usize) {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        let mut best = (f64::NEG_INFINITY, usize::MAX);
        for &j in candidates {
            let r = self.resistance(s, j);
            if r > best.0 {
                best = (r, j);
            }
        }
        best
    }

    /// Sherman–Morrison rank-1 update of the sketch for **adding** edge
    /// `e = (u, v)`: the new sketch and its `n` squared column norms
    /// `‖x'_j‖²`, each bitwise `vector::dot(x'_j, x'_j)` (the engine's
    /// hull panel takes them instead of sweeping the new sketch again).
    ///
    /// With `b = e_u − e_v`, `w = L†b` (`potentials`, one CG solve on the
    /// *pre-addition* graph) and `r = bᵀL†b = w_u − w_v` (`r_uv`), the new
    /// incidence row gets a fresh projection column `q` and the sketch
    /// updates **exactly** (it is the JL sketch of the post-addition graph
    /// under the extended projection):
    ///
    /// ```text
    /// X̃' = X̃ + (q − x_u + x_v) · wᵀ / (1 + r),
    /// ```
    ///
    /// using `X̃b = x_u − x_v`. `q` is drawn deterministically from
    /// `q_seed` with entries `±1/√d` where `d` is the *surviving*
    /// dimension — the drop-rescale `√(d₀/d)` of the build is already
    /// folded into the stored columns, so the effective projection entries
    /// are `±1/√d` throughout. Cost `O(n·d)`: one read of this sketch and
    /// one write of the new one (the private `rank_one` pass).
    ///
    /// Build diagnostics and `ε` carry over: the update adds no solver
    /// error beyond the CG tolerance of `potentials`, and the added JL
    /// column keeps the estimator unbiased at the same dimension.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `potentials.len() != n`, or
    /// the sketch has dimension 0.
    pub fn added_edge(
        &self,
        e: Edge,
        potentials: &[f64],
        r_uv: f64,
        q_seed: u64,
    ) -> (ResistanceSketch, Vec<f64>) {
        let d = self.d;
        assert!(d > 0, "cannot update a zero-dimension sketch");
        assert!(e.v < self.n, "edge endpoint out of range");
        assert_eq!(potentials.len(), self.n, "potentials length mismatch");
        let q = projection_column(d, q_seed);
        let denom = 1.0 + r_uv;
        let (xu, xv) = (self.embedding(e.u), self.embedding(e.v));
        let dir: Vec<f64> = (0..d).map(|i| (q[i] - xu[i] + xv[i]) / denom).collect();
        self.rank_one(&dir, potentials)
    }

    /// Sherman–Morrison rank-1 downdate of the sketch for **removing**
    /// edge `e = (u, v)`: the new sketch and its `n` squared column norms.
    ///
    /// With `w = L†b` and `r = r(u, v)` measured on the *pre-removal*
    /// graph, the pseudoinverse downdate `L'† = L† + wwᵀ/(1 − r)` gives
    ///
    /// ```text
    /// X̃'' = X̃ + (x_u − x_v) · wᵀ / (1 − r).
    /// ```
    ///
    /// Unlike [`Self::added_edge`] this is *not* exact: the removed
    /// incidence row's projection column stays folded into the sketch,
    /// leaving a residual `−q_ρ wᵀ/(1 − r)` (`‖q_ρ‖ = 1`) that inflates
    /// `r̃(s, t)` by at most `r(s, t)·r/(1 − r)` plus a mean-zero cross
    /// term (Cauchy–Schwarz). Substituting a fresh random column would
    /// *double* that variance, so the stale term is deliberately omitted;
    /// the serving layer charges `r/(1 − r)` against its error budget and
    /// a re-sketch eventually clears the residue.
    ///
    /// # Errors
    ///
    /// [`CoreError::DisconnectingRemoval`] when `1 − r_uv ≤ 1e-6`, before
    /// anything is allocated. The floor is deliberately looser than the
    /// dense-pseudoinverse guard in [`crate::update::pinv_remove_edge`]
    /// because `r_uv` here comes from a CG solve (default tolerance 1e-8):
    /// a true bridge can measure as `r = 1 ± 1e-8`, which a 1e-12 floor
    /// would wave through and then amplify by 10⁸.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `potentials.len() != n`, or
    /// the sketch has dimension 0.
    pub fn removed_edge(
        &self,
        e: Edge,
        potentials: &[f64],
        r_uv: f64,
    ) -> Result<(ResistanceSketch, Vec<f64>), CoreError> {
        let d = self.d;
        assert!(d > 0, "cannot update a zero-dimension sketch");
        assert!(e.v < self.n, "edge endpoint out of range");
        assert_eq!(potentials.len(), self.n, "potentials length mismatch");
        let denom = 1.0 - r_uv;
        if denom <= 1e-6 {
            return Err(CoreError::DisconnectingRemoval { u: e.u, v: e.v, r_uv });
        }
        let (xu, xv) = (self.embedding(e.u), self.embedding(e.v));
        let dir: Vec<f64> = (0..d).map(|i| (xu[i] - xv[i]) / denom).collect();
        Ok(self.rank_one(&dir, potentials))
    }

    /// The pass both rank-1 updates share: column `j` of the new sketch is
    /// `x_j + dir·w_j`, written straight into a fresh buffer, so the old
    /// sketch is read once and the new one written once. Every
    /// [`vector::LANES`] columns, the block just written (still in
    /// cache) gets its squared norms from [`vector::column_norms_sq`].
    ///
    /// Each entry is `c + g·w_j`, unfused: WAL replay and
    /// `tests/golden/mutated_epoch.sketch` pin these bits. A column with
    /// `w_j == 0.0` (either sign) is copied verbatim: `c + g·0.0` would
    /// turn a `−0.0` entry into `+0.0`.
    fn rank_one(&self, dir: &[f64], potentials: &[f64]) -> (ResistanceSketch, Vec<f64>) {
        let d = self.d;
        let block = vector::LANES;
        let mut data = Vec::with_capacity(self.n * d);
        let mut norms = vec![0.0; self.n];
        let blocks = self
            .data
            .chunks(block * d)
            .zip(potentials.chunks(block))
            .zip(norms.chunks_mut(block));
        for ((cols, ws), block_norms) in blocks {
            let start = data.len();
            for (x, &wj) in cols.chunks_exact(d).zip(ws) {
                if wj == 0.0 {
                    data.extend_from_slice(x);
                } else {
                    data.extend(x.iter().zip(dir).map(|(&c, &g)| c + g * wj));
                }
            }
            vector::column_norms_sq(&data[start..], d, block_norms);
        }
        let sketch = ResistanceSketch {
            data,
            d,
            n: self.n,
            epsilon: self.epsilon,
            converged_rows: self.converged_rows,
            solve_iterations: self.solve_iterations,
            diagnostics: self.diagnostics.clone(),
        };
        (sketch, norms)
    }

    /// The node embedding: column `u` of `X̃` as an owned point in `R^d`
    /// (see [`Self::embedding`] for the borrowing variant).
    pub fn embedding_point(&self, u: usize) -> Vec<f64> {
        self.embedding(u).to_vec()
    }

    /// All node embeddings as a zero-copy [`PointsView`] (the set `S`
    /// FASTQUERY feeds to APPROXCH). The view borrows [`Self::flat`]
    /// directly — point-major is exactly the node-major sketch layout —
    /// so hull construction never materializes an O(n·d) copy.
    pub fn point_view(&self) -> PointsView<'_> {
        PointsView::from_flat(self.d, &self.data)
    }
}

fn row_is_finite(row: &[f64]) -> bool {
    row.iter().all(|x| x.is_finite())
}

fn is_zero(row: &[f64]) -> bool {
    row.iter().all(|&x| x == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactResistance;
    use reecc_graph::generators::{barabasi_albert, complete, cycle, line, star};
    use reecc_graph::Graph;

    /// Test parameters: full paper dimension would be thousands; the JL
    /// guarantee holds with margin at much lower d for these tiny graphs.
    fn params(epsilon: f64) -> SketchParams {
        SketchParams { epsilon, seed: 7, ..Default::default() }
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Graph::from_edges(0, []).unwrap();
        assert!(matches!(
            ResistanceSketch::build(&empty, &params(0.3)),
            Err(CoreError::EmptyGraph)
        ));
        let disc = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            ResistanceSketch::build(&disc, &params(0.3)),
            Err(CoreError::Disconnected)
        ));
    }

    #[test]
    fn dimension_matches_formula() {
        let g = cycle(50);
        let p = params(0.5);
        let sk = ResistanceSketch::build(&g, &p).unwrap();
        assert_eq!(sk.dimension(), p.dimension_for(50));
        assert_eq!(sk.node_count(), 50);
    }

    #[test]
    fn dimension_cap_applies() {
        let g = cycle(50);
        let p = SketchParams { max_dimension: Some(16), ..params(0.3) };
        let sk = ResistanceSketch::build(&g, &p).unwrap();
        assert_eq!(sk.dimension(), 16);
    }

    #[test]
    fn sketch_resistances_close_to_exact_on_line() {
        let g = line(12);
        let eps = 0.3;
        let sk = ResistanceSketch::build(&g, &params(eps)).unwrap();
        assert_eq!(sk.converged_rows(), sk.dimension());
        let exact = ExactResistance::new(&g).unwrap();
        for u in 0..12 {
            for v in (u + 1)..12 {
                let r = exact.resistance(u, v);
                let rt = sk.resistance(u, v);
                assert!((rt - r).abs() <= eps * r, "r({u},{v}): sketch {rt} vs exact {r}");
            }
        }
    }

    #[test]
    fn sketch_eccentricity_close_on_star() {
        let g = star(20);
        let eps = 0.25;
        let sk = ResistanceSketch::build(&g, &params(eps)).unwrap();
        let (c_hub, _) = sk.eccentricity(0);
        assert!((c_hub - 1.0).abs() <= eps, "hub ecc {c_hub}");
        let (c_leaf, far) = sk.eccentricity(5);
        assert!((c_leaf - 2.0).abs() <= 2.0 * eps, "leaf ecc {c_leaf}");
        assert!(far != 0 && far != 5, "farthest from a leaf is another leaf, got {far}");
    }

    #[test]
    fn resistances_from_matches_pointwise() {
        let g = complete(8);
        let sk = ResistanceSketch::build(&g, &params(0.4)).unwrap();
        let row = sk.resistances_from(2);
        for (j, &r) in row.iter().enumerate() {
            assert!((r - sk.resistance(2, j)).abs() < 1e-12);
        }
        assert_eq!(row[2], 0.0);
    }

    #[test]
    fn eccentricity_over_subset_bounded_by_full() {
        let g = barabasi_albert(60, 2, 3);
        let sk = ResistanceSketch::build(&g, &params(0.4)).unwrap();
        let (full, _) = sk.eccentricity(0);
        let subset: Vec<usize> = (0..60).step_by(3).collect();
        let (part, _) = sk.eccentricity_over(0, &subset);
        assert!(part <= full + 1e-12);
    }

    #[test]
    fn seed_determinism() {
        let g = cycle(20);
        let a = ResistanceSketch::build(&g, &params(0.5)).unwrap();
        let b = ResistanceSketch::build(&g, &params(0.5)).unwrap();
        assert_eq!(a.flat(), b.flat());
        let c = ResistanceSketch::build(&g, &SketchParams { seed: 8, ..params(0.5) }).unwrap();
        assert_ne!(a.flat(), c.flat());
    }

    #[test]
    fn single_thread_matches_parallel_bitwise() {
        // The bitwise contract: every threads × block_size combination
        // yields the exact same sketch bits. Block boundaries depend only
        // on d and the block width, and blocked CG is per-column bitwise
        // identical to scalar CG.
        let g = barabasi_albert(40, 2, 1);
        let base = params(0.5);
        let reference =
            ResistanceSketch::build(&g, &SketchParams { threads: 1, block_size: 1, ..base })
                .unwrap();
        for threads in [1usize, 4] {
            for block_size in [0usize, 1, 3, 8] {
                let sk =
                    ResistanceSketch::build(&g, &SketchParams { threads, block_size, ..base })
                        .unwrap();
                assert_eq!(sk.dimension(), reference.dimension());
                assert_eq!(
                    sk.flat(),
                    reference.flat(),
                    "sketch bits diverged at threads={threads} block_size={block_size}"
                );
                assert_eq!(sk.diagnostics(), reference.diagnostics());
            }
        }
        assert!(reference.solve_iterations() > 0);
    }

    #[test]
    fn effective_block_size_is_precision_aware() {
        let f64_p = params(0.3);
        let mixed_p = SketchParams { precision: Precision::Mixed, ..f64_p };
        // Below both crossovers: the wide default either way.
        assert_eq!(f64_p.effective_block_size(10_000), DEFAULT_BLOCK_SIZE);
        assert_eq!(mixed_p.effective_block_size(10_000), DEFAULT_BLOCK_SIZE);
        // Between the crossovers: f32 gathers are half the bytes, so
        // mixed keeps the wide block where f64 has already narrowed.
        assert_eq!(f64_p.effective_block_size(30_000), LARGE_GRAPH_BLOCK_SIZE);
        assert_eq!(mixed_p.effective_block_size(30_000), DEFAULT_BLOCK_SIZE);
        // Past the mixed crossover both narrow.
        assert_eq!(mixed_p.effective_block_size(50_000), LARGE_GRAPH_BLOCK_SIZE);
        // Explicit widths are always honored verbatim.
        let explicit = SketchParams { block_size: 6, ..mixed_p };
        assert_eq!(explicit.effective_block_size(100_000), 6);
    }

    #[test]
    fn mixed_precision_tracks_f64_build_within_epsilon() {
        // Mixed refinement runs to the same relative-residual tolerance as
        // the f64 solver, so the resulting resistance estimates must obey
        // the same ε bound against exact values — and the sketch entries
        // themselves stay far closer to the f64 build than ε/10.
        let g = barabasi_albert(80, 2, 11);
        let eps = 0.35;
        let reference = ResistanceSketch::build(&g, &params(eps)).unwrap();
        let mixed = ResistanceSketch::build(
            &g,
            &SketchParams { precision: Precision::Mixed, ..params(eps) },
        )
        .unwrap();
        assert_eq!(mixed.dimension(), reference.dimension());
        assert!(mixed.diagnostics().fully_converged(), "{:?}", mixed.diagnostics());
        for (a, b) in mixed.flat().iter().zip(reference.flat()) {
            assert!((a - b).abs() < eps / 10.0, "entry drift {a} vs {b}");
        }
        let exact = ExactResistance::new(&g).unwrap();
        for (u, v) in [(0usize, 79usize), (3, 40), (17, 62)] {
            let r = exact.resistance(u, v);
            let rt = mixed.resistance(u, v);
            assert!((rt - r).abs() <= eps * r, "r({u},{v}): mixed {rt} vs exact {r}");
        }
    }

    #[test]
    fn mixed_precision_is_bitwise_deterministic_across_threads_and_blocks() {
        // The mixed solver is per-column independent (masked lockstep inner
        // CG, per-column refinement rounds), so like the f64 path its
        // output must be bit-identical for every threads × block_size
        // combination — including the degenerate width-1 blocked solve.
        let g = barabasi_albert(40, 2, 2);
        let base = SketchParams { precision: Precision::Mixed, ..params(0.5) };
        let reference =
            ResistanceSketch::build(&g, &SketchParams { threads: 1, block_size: 1, ..base })
                .unwrap();
        for threads in [1usize, 4] {
            for block_size in [0usize, 1, 3, 8] {
                let sk =
                    ResistanceSketch::build(&g, &SketchParams { threads, block_size, ..base })
                        .unwrap();
                assert_eq!(
                    sk.flat(),
                    reference.flat(),
                    "mixed sketch bits diverged at threads={threads} block_size={block_size}"
                );
                assert_eq!(sk.diagnostics(), reference.diagnostics());
            }
        }
    }

    #[test]
    fn auto_chebyshev_preconditioner_resolves_and_converges() {
        use reecc_linalg::{ChebyshevConfig, Preconditioner};
        // An unresolved auto-Chebyshev request is resolved once per build
        // (sentinels filled from the power-iteration estimate), and the
        // resulting sketch meets the same ε bound as the Jacobi default.
        let g = line(30);
        let eps = 0.3;
        let mut p = params(eps);
        p.cg.preconditioner = Preconditioner::Chebyshev(ChebyshevConfig::default());
        let sk = ResistanceSketch::build(&g, &p).unwrap();
        assert!(sk.diagnostics().fully_converged(), "{:?}", sk.diagnostics());
        let exact = ExactResistance::new(&g).unwrap();
        for (u, v) in [(0usize, 29usize), (5, 20)] {
            let r = exact.resistance(u, v);
            let rt = sk.resistance(u, v);
            assert!((rt - r).abs() <= eps * r, "r({u},{v}): sketch {rt} vs exact {r}");
        }
        // Resolution happens before the solves fan out, so the build is
        // deterministic across thread counts despite the power iteration.
        let again = ResistanceSketch::build(&g, &SketchParams { threads: 4, ..p }).unwrap();
        assert_eq!(again.flat(), sk.flat());
    }

    #[test]
    fn mixed_with_chebyshev_matches_f64_reference() {
        use reecc_linalg::{ChebyshevConfig, Preconditioner};
        let g = barabasi_albert(60, 3, 19);
        let eps = 0.4;
        let mut p = params(eps);
        p.cg.preconditioner = Preconditioner::Chebyshev(ChebyshevConfig::default());
        let f64_sk = ResistanceSketch::build(&g, &p).unwrap();
        let mixed_sk =
            ResistanceSketch::build(&g, &SketchParams { precision: Precision::Mixed, ..p })
                .unwrap();
        assert!(mixed_sk.diagnostics().fully_converged(), "{:?}", mixed_sk.diagnostics());
        for (a, b) in mixed_sk.flat().iter().zip(f64_sk.flat()) {
            assert!((a - b).abs() < eps / 10.0, "entry drift {a} vs {b}");
        }
    }

    #[test]
    fn point_view_roundtrip() {
        use reecc_hull::Points;
        let g = cycle(10);
        let sk = ResistanceSketch::build(&g, &params(0.5)).unwrap();
        let ps = sk.point_view();
        assert_eq!(ps.len(), 10);
        assert_eq!(ps.dim(), sk.dimension());
        assert_eq!(ps.point(3), sk.embedding_point(3).as_slice());
        // Pairwise embedding distances are the resistance estimates —
        // bitwise, since the view borrows the sketch buffer itself.
        assert_eq!(ps.dist_sq(2, 7), sk.resistance(2, 7));
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let g = barabasi_albert(30, 2, 5);
        let sk = ResistanceSketch::build(&g, &params(0.4)).unwrap();
        let back = ResistanceSketch::from_parts(
            sk.to_rows(),
            sk.node_count(),
            sk.epsilon(),
            sk.diagnostics().clone(),
        )
        .unwrap();
        assert_eq!(back.flat(), sk.flat());
        assert_eq!(back.converged_rows(), sk.converged_rows());
        assert_eq!(back.resistance(0, 29), sk.resistance(0, 29));
        // Row length mismatch.
        assert!(ResistanceSketch::from_parts(
            vec![vec![0.0; 7]],
            30,
            0.4,
            SketchDiagnostics { rows: 1, ..Default::default() }
        )
        .is_err());
        // Diagnostics that do not account for the rows present.
        assert!(ResistanceSketch::from_parts(
            sk.to_rows(),
            sk.node_count(),
            sk.epsilon(),
            SketchDiagnostics { rows: sk.dimension() + 3, ..sk.diagnostics().clone() }
        )
        .is_err());
        // Bad epsilon and non-finite rows.
        assert!(
            ResistanceSketch::from_parts(vec![], 5, 1.5, SketchDiagnostics::default()).is_err()
        );
        assert!(ResistanceSketch::from_parts(
            vec![vec![f64::NAN; 5]],
            5,
            0.3,
            SketchDiagnostics { rows: 1, ..Default::default() }
        )
        .is_err());
    }

    #[test]
    fn add_edge_update_matches_exact_on_new_graph() {
        use reecc_linalg::cg::CgWorkspace;
        // The rank-1 add is exact (it is the JL sketch of the new graph
        // under the extended projection), so the updated sketch must meet
        // the same ε bound against the post-addition exact resistances
        // that a fresh build would.
        let g = cycle(12);
        let eps = 0.3;
        let sk = ResistanceSketch::build(&g, &params(eps)).unwrap();
        let e = reecc_graph::Edge::new(0, 6);
        let mut ws = CgWorkspace::new(12);
        let (w, r_uv) = crate::update::solve_edge_potentials(
            &g,
            e,
            reecc_linalg::cg::CgOptions::default(),
            &mut ws,
        );
        let (sk, _) = sk.added_edge(e, &w, r_uv, 1234);
        let g2 = g.with_edge(e).unwrap();
        let exact = ExactResistance::new(&g2).unwrap();
        for u in 0..12 {
            for v in (u + 1)..12 {
                let r = exact.resistance(u, v);
                let rt = sk.resistance(u, v);
                assert!((rt - r).abs() <= eps * r, "r({u},{v}): sketch {rt} vs exact {r}");
            }
        }
    }

    #[test]
    fn add_edge_update_is_seed_deterministic() {
        use reecc_linalg::cg::CgWorkspace;
        let g = cycle(10);
        let e = reecc_graph::Edge::new(0, 5);
        let mut ws = CgWorkspace::new(10);
        let (w, r_uv) = crate::update::solve_edge_potentials(
            &g,
            e,
            reecc_linalg::cg::CgOptions::default(),
            &mut ws,
        );
        let base = ResistanceSketch::build(&g, &params(0.4)).unwrap();
        let (a, _) = base.added_edge(e, &w, r_uv, 77);
        let (b, _) = base.added_edge(e, &w, r_uv, 77);
        assert_eq!(a.flat(), b.flat(), "same seed must replay bit-for-bit");
        let (c, _) = base.added_edge(e, &w, r_uv, 78);
        assert_ne!(a.flat(), c.flat());
    }

    #[test]
    fn remove_edge_update_tracks_exact_within_residual_bound() {
        use reecc_linalg::cg::CgWorkspace;
        // Removal leaves the dead incidence row's projection column in the
        // sketch: the estimate for a pair (s, t) can drift by up to
        // r(s,t)·r_e/(1−r_e) plus a small mean-zero cross term. On a
        // complete graph r_e = 2/n is small, so the combined bound is
        // still a usable multiplicative guarantee.
        let g = complete(10);
        let eps = 0.25;
        let sk = ResistanceSketch::build(&g, &params(eps)).unwrap();
        let e = reecc_graph::Edge::new(0, 1);
        let mut ws = CgWorkspace::new(10);
        let (w, r_uv) = crate::update::solve_edge_potentials(
            &g,
            e,
            reecc_linalg::cg::CgOptions::default(),
            &mut ws,
        );
        let (sk, _) = sk.removed_edge(e, &w, r_uv).unwrap();
        let cut = g.without_edge(e).unwrap();
        let exact = ExactResistance::new(&cut).unwrap();
        let residual = r_uv / (1.0 - r_uv);
        let tol = eps + 2.0 * residual;
        for u in 0..10 {
            for v in (u + 1)..10 {
                let r = exact.resistance(u, v);
                let rt = sk.resistance(u, v);
                assert!(rt.is_finite());
                assert!((rt - r).abs() <= tol * r, "r({u},{v}): sketch {rt} vs exact {r}");
            }
        }
    }

    #[test]
    fn remove_edge_update_rejects_bridges_untouched() {
        use reecc_linalg::cg::CgWorkspace;
        let g = line(6);
        let sk0 = ResistanceSketch::build(&g, &params(0.4)).unwrap();
        let sk = sk0.clone();
        let e = reecc_graph::Edge::new(2, 3);
        let mut ws = CgWorkspace::new(6);
        let (w, r_uv) = crate::update::solve_edge_potentials(
            &g,
            e,
            reecc_linalg::cg::CgOptions::default(),
            &mut ws,
        );
        let err = sk.removed_edge(e, &w, r_uv).unwrap_err();
        assert!(matches!(err, CoreError::DisconnectingRemoval { u: 2, v: 3, .. }), "{err:?}");
        assert_eq!(sk.flat(), sk0.flat(), "failed downdate must leave the sketch untouched");
    }

    #[test]
    fn rank_one_pass_copies_zero_weight_columns_verbatim() {
        // Synthetic potentials: a column whose weight is 0.0 or −0.0 must
        // come through bit for bit, −0.0 entries included (`−0.0 + g·0.0`
        // is +0.0), and every returned norm must be `dot(x, x)` of the new
        // column. 11 nodes: one full lane group plus a tail.
        let n = 11;
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..n)
                    .map(|u| if (u + i) % 3 == 0 { -0.0 } else { (u as f64 - 5.0) * 0.1 })
                    .collect()
            })
            .collect();
        let diagnostics =
            SketchDiagnostics { rows: 3, converged_first_try: 3, ..Default::default() };
        let sk = ResistanceSketch::from_parts(rows, n, 0.5, diagnostics).unwrap();
        let zero_cols = [0usize, 3, 9];
        let w: Vec<f64> = (0..n)
            .map(|j| match j {
                3 => -0.0,
                j if zero_cols.contains(&j) => 0.0,
                j => (j as f64 - 5.5) * 0.05,
            })
            .collect();
        let e = reecc_graph::Edge::new(1, 4);
        let added = sk.added_edge(e, &w, 0.3, 5);
        let removed = sk.removed_edge(e, &w, 0.3).unwrap();
        for (updated, norms) in [&added, &removed] {
            for (j, norm) in norms.iter().enumerate() {
                let (old, new) = (sk.embedding(j), updated.embedding(j));
                if zero_cols.contains(&j) {
                    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(new), bits(old), "column {j} must be copied verbatim");
                } else {
                    assert_ne!(new, old, "column {j} must be updated");
                }
                assert_eq!(norm.to_bits(), vector::dot(new, new).to_bits(), "norm {j}");
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        let sk = ResistanceSketch::build(&g, &params(0.3)).unwrap();
        assert_eq!(sk.node_count(), 1);
        let (c, f) = sk.eccentricity(0);
        assert_eq!(c, 0.0);
        assert_eq!(f, 0);
    }

    #[test]
    fn starved_cg_budget_rows_are_repaired() {
        use reecc_linalg::cg::CgOptions;
        // Two CG iterations cannot solve a length-40 path system, so every
        // row needs the ladder; the dense fallback must rescue them all.
        let g = line(40);
        let eps = 0.3;
        let p = SketchParams {
            cg: CgOptions { max_iterations: Some(2), ..CgOptions::default() },
            ..params(eps)
        };
        let sk = ResistanceSketch::build(&g, &p).unwrap();
        let diag = sk.diagnostics();
        assert!(diag.repaired_any(), "{diag:?}");
        assert!(diag.fully_converged(), "{diag:?}");
        assert_eq!(sk.converged_rows(), sk.dimension());
        assert!(!diag.fallback_rows.is_empty());
        // Repaired rows give estimates as good as a healthy build's.
        let exact = ExactResistance::new(&g).unwrap();
        for (u, v) in [(0usize, 39usize), (5, 20)] {
            let r = exact.resistance(u, v);
            let rt = sk.resistance(u, v);
            assert!((rt - r).abs() <= eps * r, "r({u},{v}): sketch {rt} vs exact {r}");
            assert!(rt.is_finite());
        }
    }

    #[test]
    fn starved_budget_without_fallback_is_reported_not_hidden() {
        use reecc_linalg::cg::CgOptions;
        use reecc_linalg::recovery::RecoveryPolicy;
        let g = line(60);
        let p = SketchParams {
            cg: CgOptions { max_iterations: Some(1), ..CgOptions::default() },
            recovery: RecoveryPolicy {
                tolerance_relaxation: 1.0,
                iteration_boost: 1,
                dense_fallback_max_nodes: 0,
            },
            ..params(0.4)
        };
        let sk = ResistanceSketch::build(&g, &p).unwrap();
        let diag = sk.diagnostics();
        // Every row is accounted for: first-try + repaired + unconverged
        // + dropped partition the dimension.
        assert_eq!(
            diag.converged_first_try
                + diag.repaired.len()
                + diag.unconverged.len()
                + diag.dropped.len(),
            diag.rows
        );
        assert!(!diag.fully_converged());
        assert!(diag.unconverged_fraction() > 0.5, "{diag:?}");
        // Degraded, but never silently poisoned: all estimates stay finite.
        for (u, v) in [(0usize, 59usize), (10, 30)] {
            assert!(sk.resistance(u, v).is_finite());
        }
    }
}
