//! Blocked + parallel candidate-evaluation engine.
//!
//! Every optimizer in this crate ultimately answers the same question per
//! greedy iteration: *"for each candidate edge `e = (u, v)`, what would
//! `c(s)` be after adding `e`?"* In the Sherman–Morrison mode that costs
//! one Laplacian solve `w = L†(e_u − e_v)` per candidate, and the serial
//! loop the heuristics used previously paid a full adjacency sweep per CG
//! iteration *per candidate*. [`CandidateEvaluator`] batches candidate
//! right-hand sides into [`solve_laplacian_block`] calls so one adjacency
//! sweep per iteration serves a whole block, and fans contiguous runs of
//! blocks out through [`reecc_linalg::par::fork_join`], one run per worker
//! of [`reecc_linalg::par::worker_count`].
//!
//! **Determinism contract.** Results are bitwise identical across every
//! `threads × block_size` combination:
//!
//! * block boundaries are fixed by *candidate index* (`candidates.chunks
//!   (width)`), never by which worker picks work up, so the set of
//!   right-hand sides sharing a block is a pure function of the input;
//! * within a block, [`solve_laplacian_block`] executes each column with
//!   exactly the scalar CG's floating-point sequence (the PR-4 bitwise
//!   contract), so the block width never changes a solution bit;
//! * workers own disjoint, contiguous runs of blocks and results are
//!   concatenated in block order, so the output order is the input order.
//!
//! **Robustness contract.** A column the block solver reports as
//! unconverged is re-solved individually through the
//! [`RecoverySolver`] escalation ladder — the same ladder the serial path
//! ran for *every* candidate. The ladder's first rung repeats the
//! CG-as-requested solve (bitwise equal to the failed block column) and
//! then escalates, so a failed candidate's final solution, `converged`
//! flag, and `escalated` semantics are identical to the old serial path;
//! a converged block column equals the old path's first-rung success.
//!
//! Per-worker scratch (the [`BlockCgWorkspace`], a reusable right-hand-side
//! block, and the recycled solutions block) is allocated once per
//! evaluation call and reused across that worker's blocks: the steady
//! state solves fresh blocks with zero allocations.

use std::sync::atomic::{AtomicBool, Ordering};

use reecc_core::sketch::{block_width, Precision, ResistanceSketch, SketchParams};
use reecc_core::update::{
    eccentricity_after_edge, solve_edge_potentials_recovering, updated_eccentricity,
};
use reecc_graph::{Edge, Graph};
use reecc_linalg::block::BlockVectors;
use reecc_linalg::block_cg::{solve_laplacian_block, BlockCgWorkspace};
use reecc_linalg::par;
use reecc_linalg::{
    CgOptions, CompactAdjacency, DenseMatrix, LaplacianOp, RecoveryPolicy, RecoverySolver,
};

/// One candidate edge's evaluation: the estimated post-addition
/// eccentricity of the source plus the solve telemetry the caller needs to
/// apply the skip/degrade policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateScore {
    /// The candidate edge.
    pub edge: Edge,
    /// Estimated `c(s | G + e)`.
    pub score: f64,
    /// Node realizing the post-addition eccentricity.
    pub farthest: usize,
    /// Whether the potentials solve met its tolerance (after the ladder,
    /// if the ladder ran). Callers should skip unconverged candidates.
    pub converged: bool,
    /// Whether the escalation ladder had to run for this candidate.
    pub escalated: bool,
    /// Final relative residual of the potentials solve.
    pub residual: f64,
}

/// Work telemetry from one [`CandidateEvaluator::evaluate_edges`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Multi-RHS CG blocks solved.
    pub blocks_solved: usize,
    /// Columns that failed in the block solve and were re-run through the
    /// recovery ladder.
    pub recovered_columns: usize,
}

/// Blocked + parallel evaluation of candidate edges. See the module docs
/// for the determinism and robustness contracts.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateEvaluator {
    /// Worker threads: `0` = auto via [`par::resolve_threads`].
    pub threads: usize,
    /// Right-hand sides per CG block: `0` = the cache-aware adaptive
    /// default shared with the sketch build, anything else the literal
    /// width. Width `1` still solves through `solve_laplacian_block`, one
    /// column per block; every width gives the same scores bit for bit.
    pub block_size: usize,
    /// Precision mode of the sketch configuration this evaluator was
    /// derived from. Candidate solves themselves always run in full `f64`
    /// (each potentials vector feeds a Sherman–Morrison update whose
    /// denominator `1 ± r_uv` is sensitive near bridges — not worth the
    /// f32 traffic savings for single-solve batches), but the adaptive
    /// `block_size: 0` width mirrors the sketch's precision-aware
    /// crossover so both layers make the same cache assumption.
    pub precision: Precision,
    /// CG options for the first-rung solves.
    pub cg: CgOptions,
    /// Escalation-ladder policy for failed columns.
    pub recovery: RecoveryPolicy,
}

impl CandidateEvaluator {
    /// Adopt the solver/parallelism knobs of a sketch configuration, so
    /// the CLI's `--threads` / `--block-size` steer the sketch build and
    /// the candidate evaluation identically.
    pub fn from_sketch_params(p: &SketchParams) -> Self {
        CandidateEvaluator {
            threads: p.threads,
            block_size: p.block_size,
            precision: p.precision,
            cg: p.cg,
            recovery: p.recovery,
        }
    }

    /// Concrete block width for an `n`-node graph — the sketch build's
    /// adaptive rule ([`block_width`]), including the later crossover
    /// under [`Precision::Mixed`].
    pub fn effective_width(&self, n: usize) -> usize {
        block_width(self.block_size, self.precision, n)
    }

    /// Score every candidate edge by `c(s | G + e)` via the blocked
    /// Sherman–Morrison path: solve `w_e = L†(e_u − e_v)` for a block of
    /// candidates at once, then combine each `w_e` with the caller's base
    /// distances `r(s, ·)` (sketched or exact). Scores come back in
    /// candidate order.
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != n`, `s` is out of range, or a candidate
    /// endpoint is out of range.
    pub fn evaluate_edges(
        &self,
        g: &Graph,
        base: &[f64],
        s: usize,
        candidates: &[Edge],
    ) -> (Vec<CandidateScore>, EvalStats) {
        self.evaluate_edges_cancellable(g, base, s, candidates, None)
            .expect("uncancellable evaluation cannot be cancelled")
    }

    /// [`Self::evaluate_edges`] with a cooperative cancellation token,
    /// polled before each block solve (on every worker). Returns `None`
    /// when cancellation was observed — partial results are discarded so
    /// a cancelled-and-retried evaluation can never differ from an
    /// uninterrupted one. When the run completes, the scores are bitwise
    /// identical to [`Self::evaluate_edges`].
    pub fn evaluate_edges_cancellable(
        &self,
        g: &Graph,
        base: &[f64],
        s: usize,
        candidates: &[Edge],
        cancel: Option<&AtomicBool>,
    ) -> Option<(Vec<CandidateScore>, EvalStats)> {
        let n = g.node_count();
        assert_eq!(base.len(), n, "base distances sized for a different graph");
        assert!(s < n, "source out of range");
        if candidates.is_empty() {
            return Some((Vec::new(), EvalStats::default()));
        }
        let width = self.effective_width(n).max(1);
        // Block boundaries fixed by candidate index: the determinism
        // anchor — identical for every threads setting.
        let blocks: Vec<&[Edge]> = candidates.chunks(width).collect();
        let per_worker = blocks.len().div_ceil(par::worker_count(self.threads, blocks.len()));
        let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));

        // Shared u32 adjacency mirror for the blocked sweeps (bitwise-
        // neutral; halves the per-iteration index stream on large graphs).
        let compact = CompactAdjacency::try_new(g);
        let solve_blocks = |blocks: &[&[Edge]]| -> Option<(Vec<CandidateScore>, EvalStats)> {
            let op = match compact.as_ref() {
                Some(adj) => LaplacianOp::with_compact(g, adj),
                None => LaplacianOp::new(g),
            };
            let mut ws = BlockCgWorkspace::new();
            // One full-width rhs block per worker; columns get their ±1
            // entries before each solve and are re-zeroed after, so the
            // buffer lives for the whole run. Tail blocks (the final
            // shorter chunk) take a one-off allocation.
            let mut rhs_full = BlockVectors::zeros(n, width);
            let mut solver: Option<RecoverySolver<'_>> = None;
            let mut scores = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum());
            let mut stats = EvalStats::default();
            for &block in blocks {
                if cancelled() {
                    return None;
                }
                let b = block.len();
                let outcome = if b == width {
                    for (j, e) in block.iter().enumerate() {
                        let col = rhs_full.column_mut(j);
                        col[e.u] = 1.0;
                        col[e.v] = -1.0;
                    }
                    let out = solve_laplacian_block(&op, &rhs_full, self.cg, &mut ws);
                    for (j, e) in block.iter().enumerate() {
                        let col = rhs_full.column_mut(j);
                        col[e.u] = 0.0;
                        col[e.v] = 0.0;
                    }
                    out
                } else {
                    let mut tail = BlockVectors::zeros(n, b);
                    for (j, e) in block.iter().enumerate() {
                        let col = tail.column_mut(j);
                        col[e.u] = 1.0;
                        col[e.v] = -1.0;
                    }
                    solve_laplacian_block(&op, &tail, self.cg, &mut ws)
                };
                stats.blocks_solved += 1;
                for (j, &e) in block.iter().enumerate() {
                    if outcome.converged[j] {
                        let w = outcome.solutions.column(j);
                        let r_uv = w[e.u] - w[e.v];
                        let (score, farthest) = updated_eccentricity(base, w, r_uv, s);
                        scores.push(CandidateScore {
                            edge: e,
                            score,
                            farthest,
                            converged: true,
                            escalated: false,
                            residual: outcome.relative_residual[j],
                        });
                    } else {
                        // The ladder's first rung repeats this column's CG
                        // solve bitwise, then escalates — identical to what
                        // the serial per-candidate path produced.
                        let solver = solver.get_or_insert_with(|| {
                            RecoverySolver::new(op, self.cg, self.recovery)
                        });
                        let (w, r_uv, report) = solve_edge_potentials_recovering(solver, e);
                        stats.recovered_columns += 1;
                        let (score, farthest) = updated_eccentricity(base, &w, r_uv, s);
                        scores.push(CandidateScore {
                            edge: e,
                            score,
                            farthest,
                            converged: report.converged,
                            escalated: report.escalated(),
                            residual: report.final_residual,
                        });
                    }
                }
                ws.recycle_solutions(outcome.solutions);
            }
            Some((scores, stats))
        };

        let mut scores = Vec::with_capacity(candidates.len());
        let mut stats = EvalStats::default();
        for part in par::fork_join(blocks.chunks(per_worker), solve_blocks) {
            let (part, part_stats) = part?;
            scores.extend(part);
            stats.blocks_solved += part_stats.blocks_solved;
            stats.recovered_columns += part_stats.recovered_columns;
        }
        Some((scores, stats))
    }

    /// SIMPLE's exact path: score candidates in `O(n)` each against a
    /// maintained dense pseudoinverse (no CG involved — `block_size` is
    /// irrelevant here, only `threads` applies). Scores come back in
    /// candidate order, every entry `converged` and un-escalated.
    ///
    /// # Panics
    ///
    /// Panics if `s` or a candidate endpoint is out of range.
    pub fn evaluate_on_pinv(
        &self,
        pinv: &DenseMatrix,
        s: usize,
        candidates: &[Edge],
    ) -> Vec<CandidateScore> {
        self.evaluate_on_pinv_cancellable(pinv, s, candidates, None)
            .expect("uncancellable evaluation cannot be cancelled")
    }

    /// [`Self::evaluate_on_pinv`] with a cooperative cancellation token,
    /// polled every few dozen candidates on every worker. Returns `None`
    /// when cancellation was observed; a completed run is bitwise
    /// identical to [`Self::evaluate_on_pinv`].
    ///
    /// # Panics
    ///
    /// Panics if `s` or a candidate endpoint is out of range.
    pub fn evaluate_on_pinv_cancellable(
        &self,
        pinv: &DenseMatrix,
        s: usize,
        candidates: &[Edge],
        cancel: Option<&AtomicBool>,
    ) -> Option<Vec<CandidateScore>> {
        if candidates.is_empty() {
            return Some(Vec::new());
        }
        const CANCEL_STRIDE: usize = 32;
        let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        let score_run = |run: &[Edge]| -> Option<Vec<CandidateScore>> {
            let mut out = Vec::with_capacity(run.len());
            for (i, &e) in run.iter().enumerate() {
                if i % CANCEL_STRIDE == 0 && cancelled() {
                    return None;
                }
                let (score, farthest) = eccentricity_after_edge(pinv, s, e);
                out.push(CandidateScore {
                    edge: e,
                    score,
                    farthest,
                    converged: true,
                    escalated: false,
                    residual: 0.0,
                });
            }
            Some(out)
        };
        // Contiguous candidate runs per worker, concatenated in order:
        // each candidate's score is independent, so the cut points cannot
        // affect any value.
        let per_worker =
            candidates.len().div_ceil(par::worker_count(self.threads, candidates.len()));
        let mut scores = Vec::with_capacity(candidates.len());
        for part in par::fork_join(candidates.chunks(per_worker), score_run) {
            scores.extend(part?);
        }
        Some(scores)
    }

    /// Parallel fill of `r̃(s, ·)` from a sketch — the scan FARMINRECC and
    /// CENMINRECC argmax over, and the base-distance vector for
    /// [`Self::evaluate_edges`]. Bitwise identical to
    /// [`ResistanceSketch::resistances_from`] for every thread count
    /// (workers write disjoint output ranges; each entry is one
    /// independent `‖x_s − x_u‖²`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn distance_scan(&self, sketch: &ResistanceSketch, s: usize) -> Vec<f64> {
        let n = sketch.node_count();
        assert!(s < n, "node out of range");
        let mut out = vec![0.0; n];
        let per_worker = n.div_ceil(par::worker_count(self.threads, n));
        let parts = out.chunks_mut(per_worker).zip((0..n).step_by(per_worker));
        par::fork_join(parts, |(chunk, start)| {
            for (off, o) in chunk.iter_mut().enumerate() {
                *o = sketch.resistance(s, start + off);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::update::solve_edge_potentials;
    use reecc_core::ExactResistance;
    use reecc_graph::generators::{barabasi_albert, line};
    use reecc_linalg::cg::CgWorkspace;

    fn candidate_pool(g: &Graph, limit: usize) -> Vec<Edge> {
        g.non_edges().into_iter().take(limit).collect()
    }

    /// The old serial path, re-enacted: one recovery-ladder solve per
    /// candidate against the same base distances.
    fn serial_reference(
        g: &Graph,
        base: &[f64],
        s: usize,
        candidates: &[Edge],
        cg: CgOptions,
        recovery: RecoveryPolicy,
    ) -> Vec<CandidateScore> {
        let op = LaplacianOp::new(g);
        let mut solver = RecoverySolver::new(op, cg, recovery);
        candidates
            .iter()
            .map(|&e| {
                let (w, r_uv, report) = solve_edge_potentials_recovering(&mut solver, e);
                let (score, farthest) = updated_eccentricity(base, &w, r_uv, s);
                CandidateScore {
                    edge: e,
                    score,
                    farthest,
                    converged: report.converged,
                    escalated: report.escalated(),
                    residual: report.final_residual,
                }
            })
            .collect()
    }

    #[test]
    fn scores_match_scalar_solves_bitwise() {
        let g = barabasi_albert(60, 2, 7);
        let exact = ExactResistance::new(&g).unwrap();
        let s = 3;
        let base = exact.resistances_from(s);
        let candidates = candidate_pool(&g, 13);
        let eval = CandidateEvaluator { threads: 1, block_size: 4, ..Default::default() };
        let (scores, stats) = eval.evaluate_edges(&g, &base, s, &candidates);
        assert_eq!(scores.len(), candidates.len());
        assert_eq!(stats.blocks_solved, 4, "13 candidates at width 4");
        assert_eq!(stats.recovered_columns, 0);
        let mut ws = CgWorkspace::new(60);
        for sc in &scores {
            let (w, r_uv) = solve_edge_potentials(&g, sc.edge, CgOptions::default(), &mut ws);
            let (score, farthest) = updated_eccentricity(&base, &w, r_uv, s);
            assert_eq!(sc.score.to_bits(), score.to_bits(), "{:?}", sc.edge);
            assert_eq!(sc.farthest, farthest);
            assert!(sc.converged && !sc.escalated);
        }
    }

    #[test]
    fn identical_across_threads_and_block_sizes() {
        let g = barabasi_albert(50, 2, 21);
        let exact = ExactResistance::new(&g).unwrap();
        let s = 0;
        let base = exact.resistances_from(s);
        let candidates = candidate_pool(&g, 17);
        let reference = CandidateEvaluator { threads: 1, block_size: 1, ..Default::default() }
            .evaluate_edges(&g, &base, s, &candidates)
            .0;
        for threads in [1usize, 2, 4] {
            for block_size in [0usize, 1, 3, 8] {
                let eval = CandidateEvaluator { threads, block_size, ..Default::default() };
                let (scores, _) = eval.evaluate_edges(&g, &base, s, &candidates);
                assert_eq!(
                    scores, reference,
                    "threads={threads} block_size={block_size} diverged"
                );
            }
        }
    }

    #[test]
    fn failed_columns_take_the_ladder_like_the_serial_path() {
        // A starved CG budget forces block-column failures; the ladder
        // (with its default boost) rescues them. The blocked path must
        // agree with the serial per-candidate reference on every field.
        let g = line(60);
        let exact = ExactResistance::new(&g).unwrap();
        let s = 0;
        let base = exact.resistances_from(s);
        let candidates = candidate_pool(&g, 9);
        let cg = CgOptions { max_iterations: Some(5), ..CgOptions::default() };
        let recovery = RecoveryPolicy::default();
        let reference = serial_reference(&g, &base, s, &candidates, cg, recovery);
        assert!(reference.iter().any(|sc| sc.escalated), "need escalations to compare");
        for (threads, block_size) in [(1usize, 4usize), (2, 4), (1, 0), (4, 3)] {
            let eval =
                CandidateEvaluator { threads, block_size, cg, recovery, ..Default::default() };
            let (scores, stats) = eval.evaluate_edges(&g, &base, s, &candidates);
            assert_eq!(scores, reference, "threads={threads} block_size={block_size} diverged");
            assert!(stats.recovered_columns > 0);
        }
    }

    #[test]
    fn pinv_scores_match_direct_evaluation_for_any_thread_count() {
        let g = line(12);
        let exact = ExactResistance::new(&g).unwrap();
        let pinv = exact.pseudoinverse();
        let candidates = candidate_pool(&g, 20);
        let reference = CandidateEvaluator { threads: 1, ..Default::default() }
            .evaluate_on_pinv(pinv, 2, &candidates);
        for (sc, &e) in reference.iter().zip(&candidates) {
            let (score, farthest) = eccentricity_after_edge(pinv, 2, e);
            assert_eq!(sc.score.to_bits(), score.to_bits());
            assert_eq!(sc.farthest, farthest);
        }
        for threads in [2usize, 3, 8] {
            let scores = CandidateEvaluator { threads, ..Default::default() }.evaluate_on_pinv(
                pinv,
                2,
                &candidates,
            );
            assert_eq!(scores, reference, "threads={threads}");
        }
    }

    #[test]
    fn distance_scan_matches_resistances_from_bitwise() {
        let g = barabasi_albert(64, 2, 5);
        let sketch = ResistanceSketch::build(
            &g,
            &SketchParams { epsilon: 0.4, seed: 9, ..Default::default() },
        )
        .unwrap();
        let reference = sketch.resistances_from(7);
        for threads in [1usize, 2, 5] {
            let eval = CandidateEvaluator { threads, ..Default::default() };
            let scan = eval.distance_scan(&sketch, 7);
            assert_eq!(
                scan.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn preset_cancel_token_aborts_both_paths() {
        let g = barabasi_albert(40, 2, 3);
        let exact = ExactResistance::new(&g).unwrap();
        let base = exact.resistances_from(0);
        let candidates = candidate_pool(&g, 10);
        let flag = AtomicBool::new(true);
        for threads in [1usize, 3] {
            let eval = CandidateEvaluator { threads, block_size: 2, ..Default::default() };
            assert!(eval
                .evaluate_edges_cancellable(&g, &base, 0, &candidates, Some(&flag))
                .is_none());
            assert!(eval
                .evaluate_on_pinv_cancellable(
                    exact.pseudoinverse(),
                    0,
                    &candidates,
                    Some(&flag)
                )
                .is_none());
        }
        flag.store(false, Ordering::Relaxed);
        let eval = CandidateEvaluator { threads: 2, block_size: 3, ..Default::default() };
        let with_token = eval
            .evaluate_edges_cancellable(&g, &base, 0, &candidates, Some(&flag))
            .expect("unset token must not cancel");
        let without = eval.evaluate_edges(&g, &base, 0, &candidates);
        assert_eq!(with_token.0, without.0);
    }

    #[test]
    fn effective_width_mirrors_sketch_policy_per_precision() {
        for precision in [Precision::F64, Precision::Mixed] {
            let params = SketchParams { precision, ..Default::default() };
            let eval = CandidateEvaluator::from_sketch_params(&params);
            assert_eq!(eval.precision, precision);
            for n in [1_000usize, 25_000, 45_000, 120_000] {
                assert_eq!(
                    eval.effective_width(n),
                    params.effective_block_size(n),
                    "precision={precision:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn empty_candidate_list_is_a_no_op() {
        let g = line(6);
        let eval = CandidateEvaluator::default();
        let (scores, stats) = eval.evaluate_edges(&g, &[0.0; 6], 0, &[]);
        assert!(scores.is_empty());
        assert_eq!(stats, EvalStats::default());
    }
}
