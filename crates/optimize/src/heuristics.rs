//! The paper's four fast heuristics (Algorithms 5, 6, 8, 9).
//!
//! * [`far_min_recc`] — FARMINRECC (REMD): per iteration, re-sketch and
//!   connect `s` to the node farthest from it in resistance distance.
//! * [`cen_min_recc`] — CENMINRECC (REMD): sketch once, run a k-center
//!   farthest-first traversal seeded at `s`, connect `s` to each chosen
//!   center.
//! * [`ch_min_recc`] — CHMINRECC (REM): per iteration, sketch, enumerate
//!   the hull boundary `Ŝ`, and commit the boundary pair whose addition
//!   minimizes the (approximate) eccentricity of `s`.
//! * [`min_recc`] — MINRECC (REM): CHMINRECC's candidate pool plus the
//!   direct edge from `s` to its farthest boundary node — the union the
//!   paper motivates with Figure 6.
//!
//! Candidate evaluation inside CHMINRECC/MINRECC supports two modes (see
//! DESIGN.md §3): `Faithful` re-sketches the augmented graph per candidate
//! exactly as the pseudocode states; `ShermanMorrison` (default) scores
//! the whole pool from sketch inner products ([`crate::screen`]) and
//! evaluates the [`CONFIRM`] best (plus MINRECC's direct edge) with
//! **one** CG solve each via the rank-1 resistance update — same
//! decisions up to sketch noise at a fraction of the cost.

use reecc_core::query::default_hull_budget;
use reecc_core::sketch::{ResistanceSketch, SketchParams};
use reecc_graph::{Edge, Graph};
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions};

use crate::control::{ControlledRun, IterationEvent, PlanStep, RunControl};
use crate::evaluator::CandidateEvaluator;
use crate::problem::validate;
use crate::screen::{screen_edges, shortlist, CONFIRM};
use crate::OptError;

/// Robustness record of a heuristic run: candidate evaluations that failed
/// (non-finite scores, unconverged solves, probe-sketch errors) are
/// *skipped and counted* here instead of aborting the whole optimization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptDiagnostics {
    /// Candidate edges discarded because their evaluation produced a
    /// non-finite score or an unusable solve.
    pub skipped_candidates: usize,
    /// Candidates whose solve needed the escalation ladder but still
    /// yielded a usable (if degraded) score.
    pub degraded_evaluations: usize,
    /// Fresh candidate evaluations performed (block-CG columns or exact
    /// pseudoinverse scans). In CHMINRECC / MINRECC only the candidates
    /// the sketch screen passes to CG count, at most [`CONFIRM`] per
    /// iteration plus MINRECC's direct edge; screening the rest is not an
    /// evaluation. Work telemetry, not a health signal.
    pub full_evals: usize,
    /// Candidate re-evaluations skipped by CELF lazy greedy because a
    /// stale upper bound already settled the argmax (always `0` in eager
    /// mode). Work telemetry, not a health signal.
    pub lazy_hits: usize,
    /// Multi-RHS CG blocks solved by the candidate-evaluation engine (in
    /// CHMINRECC / MINRECC, over the confirmed candidates only). Work
    /// telemetry, not a health signal.
    pub blocks_solved: usize,
    /// Human-readable notes on each skip / early stop.
    pub notes: Vec<String>,
}

impl OptDiagnostics {
    /// Whether every evaluation was clean.
    pub fn clean(&self) -> bool {
        self.skipped_candidates == 0 && self.degraded_evaluations == 0
    }
}

/// How CHMINRECC / MINRECC score a candidate edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Re-sketch the augmented graph per candidate (paper pseudocode,
    /// `Õ(m/ε²)` per candidate).
    Faithful,
    /// Sherman–Morrison resistance update (default): every candidate is
    /// screened from sketch inner products, and the [`CONFIRM`] best
    /// (plus MINRECC's direct edge) get one CG solve each, combined with
    /// the current sketch; the CG scores decide.
    #[default]
    ShermanMorrison,
}

/// Parameters shared by the sketch-based heuristics.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeParams {
    /// Sketch configuration (ε, dimension scaling, seed, threads, CG).
    pub sketch: SketchParams,
    /// Candidate evaluation mode for CHMINRECC / MINRECC.
    pub eval: EvalMode,
    /// Hull vertex budget for CHMINRECC / MINRECC; `None` uses
    /// [`default_hull_budget`]. Smaller budgets mean fewer (`l²`)
    /// candidate pairs per iteration.
    pub hull_budget: Option<usize>,
}

impl Default for OptimizeParams {
    fn default() -> Self {
        OptimizeParams {
            sketch: SketchParams::default(),
            eval: EvalMode::ShermanMorrison,
            hull_budget: None,
        }
    }
}

impl OptimizeParams {
    /// Convenience constructor fixing `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        OptimizeParams { sketch: SketchParams::with_epsilon(epsilon), ..Default::default() }
    }

    fn iteration_sketch(&self, iteration: usize) -> SketchParams {
        // Derive a fresh projection per iteration so repeated sketches do
        // not share the same JL noise (and stay deterministic overall).
        SketchParams {
            seed: self.sketch.seed.wrapping_add(1_000_003u64.wrapping_mul(iteration as u64)),
            ..self.sketch
        }
    }

    fn budget(&self, n: usize) -> usize {
        self.hull_budget.unwrap_or_else(|| default_hull_budget(n)).max(2)
    }
}

/// FARMINRECC (Algorithm 5) for REMD: `k` times, re-sketch the current
/// graph and connect `s` to the (estimated) resistance-farthest
/// non-neighbor.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn far_min_recc(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<Vec<Edge>, OptError> {
    far_min_recc_with_diagnostics(g, k, s, params).map(|(plan, _)| plan)
}

/// [`far_min_recc`] returning the robustness diagnostics alongside the
/// plan: nodes with non-finite distance estimates are skipped and counted
/// rather than poisoning the argmax.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn far_min_recc_with_diagnostics(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<(Vec<Edge>, OptDiagnostics), OptError> {
    let run = far_min_recc_controlled(g, k, s, params, &mut RunControl::none())?;
    Ok((run.plan(), run.diag))
}

/// [`far_min_recc_with_diagnostics`] under external [`RunControl`].
/// Resume fast-replays the prefix by committing its edges directly: the
/// global iteration counter stays aligned, so the per-iteration sketch
/// seeds of the fresh iterations match an uninterrupted run exactly.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, sketch failure, a rejected
/// resume prefix, or an observer abort.
pub fn far_min_recc_controlled(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    validate(g, s, k, g.non_edges_at(s).len())?;
    ctrl.check_resume_budget(k)?;
    let evaluator = CandidateEvaluator::from_sketch_params(&params.sketch);
    let mut current = g.clone();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(k);
    let mut diag = OptDiagnostics::default();
    for &edge in ctrl.resume {
        if !edge.touches(s) {
            return Err(OptError::Resume(format!(
                "checkpointed edge ({}, {}) does not touch source {s}",
                edge.u, edge.v
            )));
        }
        current = current.with_edge(edge)?;
        steps.push(PlanStep { edge, score: f64::NAN });
    }
    let resumed = steps.len();
    for iter in resumed..k {
        if ctrl.is_cancelled() {
            return Ok(ControlledRun::cancelled(steps, diag, resumed));
        }
        let sketch = ResistanceSketch::build(&current, &params.iteration_sketch(iter))?;
        let dists = evaluator.distance_scan(&sketch, s);
        let mut scanned = 0usize;
        let mut best: Option<(usize, f64)> = None;
        for (u, &r) in dists.iter().enumerate() {
            if u == s || current.has_edge(s, u) {
                continue;
            }
            if !r.is_finite() {
                diag.skipped_candidates += 1;
                continue;
            }
            scanned += 1;
            match best {
                Some((_, br)) if r <= br => {}
                _ => best = Some((u, r)),
            }
        }
        let Some((u, r)) = best else {
            if dists.iter().any(|r| !r.is_finite()) {
                diag.notes.push(format!(
                    "iteration {iter}: no finite distance estimate among candidates; stopping"
                ));
            }
            break; // source saturated (or nothing evaluable)
        };
        let e = Edge::new(s, u);
        ctrl.observe(&IterationEvent {
            iteration: steps.len(),
            edge: e,
            score: r,
            full_evals: scanned,
            lazy_hits: 0,
        })?;
        current = current.with_edge(e)?;
        steps.push(PlanStep { edge: e, score: r });
    }
    Ok(ControlledRun::finished(steps, diag, resumed))
}

/// CENMINRECC (Algorithm 6) for REMD: one sketch, then a k-center
/// farthest-first traversal (in resistance space) seeded at `s`; each
/// chosen center is connected to `s`.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn cen_min_recc(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<Vec<Edge>, OptError> {
    cen_min_recc_with_diagnostics(g, k, s, params).map(|(plan, _)| plan)
}

/// [`cen_min_recc`] returning the robustness diagnostics alongside the
/// plan.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn cen_min_recc_with_diagnostics(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<(Vec<Edge>, OptDiagnostics), OptError> {
    let run = cen_min_recc_controlled(g, k, s, params, &mut RunControl::none())?;
    Ok((run.plan(), run.diag))
}

/// [`cen_min_recc_with_diagnostics`] under external [`RunControl`].
/// Resume *re-executes* the traversal from the start — the min-merged
/// distance state spans iterations, so replaying is the only way to
/// restore it bitwise — and verifies each replayed pick against the
/// checkpointed prefix ([`OptError::ResumeMismatch`] on divergence).
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, sketch failure, a rejected
/// resume prefix, or an observer abort.
pub fn cen_min_recc_controlled(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    validate(g, s, k, g.non_edges_at(s).len())?;
    ctrl.check_resume_budget(k)?;
    let resume_len = ctrl.resume.len();
    let evaluator = CandidateEvaluator::from_sketch_params(&params.sketch);
    let sketch = ResistanceSketch::build(g, &params.sketch)?;
    let n = g.node_count();
    let mut diag = OptDiagnostics::default();
    // min_r[u] = estimated resistance from u to the chosen center set T.
    let mut min_r = evaluator.distance_scan(&sketch, s);
    let mut in_t = vec![false; n];
    in_t[s] = true;
    let mut steps: Vec<PlanStep> = Vec::with_capacity(k);
    let mut current = g.clone();
    for iter in 0..k {
        if ctrl.is_cancelled() {
            return Ok(ControlledRun::cancelled(steps, diag, resume_len.min(iter)));
        }
        let mut scanned = 0usize;
        let mut best: Option<(usize, f64)> = None;
        for u in 0..n {
            if in_t[u] || current.has_edge(s, u) {
                continue;
            }
            if !min_r[u].is_finite() {
                diag.skipped_candidates += 1;
                continue;
            }
            scanned += 1;
            match best {
                Some((_, br)) if min_r[u] <= br => {}
                _ => best = Some((u, min_r[u])),
            }
        }
        let Some((u, r)) = best else {
            if iter < resume_len {
                return Err(OptError::Resume(format!(
                    "traversal saturated at iteration {iter}, before replaying the \
                     {resume_len}-edge checkpointed prefix"
                )));
            }
            break;
        };
        let e = Edge::new(s, u);
        if iter < resume_len {
            if e != ctrl.resume[iter] {
                return Err(OptError::ResumeMismatch {
                    iteration: iter,
                    expected: ctrl.resume[iter],
                    found: e,
                });
            }
        } else {
            ctrl.observe(&IterationEvent {
                iteration: iter,
                edge: e,
                score: r,
                full_evals: scanned,
                lazy_hits: 0,
            })?;
        }
        in_t[u] = true;
        current = current.with_edge(e)?;
        steps.push(PlanStep { edge: e, score: r });
        let new_dists = evaluator.distance_scan(&sketch, u);
        for (m, &d) in min_r.iter_mut().zip(&new_dists) {
            if d < *m {
                *m = d;
            }
        }
    }
    Ok(ControlledRun::finished(steps, diag, resume_len))
}

/// CHMINRECC (Algorithm 8) for REM: per iteration, sketch the current
/// graph, enumerate the hull boundary `Ŝ`, and commit the `Ŝ×Ŝ`
/// non-edge minimizing the (approximate) post-addition `c(s)`.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn ch_min_recc(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<Vec<Edge>, OptError> {
    ch_min_recc_with_diagnostics(g, k, s, params).map(|(plan, _)| plan)
}

/// [`ch_min_recc`] returning the robustness diagnostics alongside the
/// plan: failed candidate evaluations are skipped and counted instead of
/// aborting.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn ch_min_recc_with_diagnostics(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<(Vec<Edge>, OptDiagnostics), OptError> {
    let run = ch_min_recc_controlled(g, k, s, params, &mut RunControl::none())?;
    Ok((run.plan(), run.diag))
}

/// [`ch_min_recc_with_diagnostics`] under external [`RunControl`].
/// Resume fast-replays the prefix by committing its edges directly; the
/// iteration counter stays aligned so fresh iterations re-sketch with the
/// same per-iteration seeds as an uninterrupted run.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, sketch failure, a rejected
/// resume prefix, or an observer abort.
pub fn ch_min_recc_controlled(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    hull_guided(g, k, s, params, false, ctrl)
}

/// MINRECC (Algorithm 9) for REM: CHMINRECC plus the direct candidate
/// `(s, argmax_{u ∈ Ŝ} r̃(s, u))` each iteration.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn min_recc(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<Vec<Edge>, OptError> {
    min_recc_with_diagnostics(g, k, s, params).map(|(plan, _)| plan)
}

/// [`min_recc`] returning the robustness diagnostics alongside the plan.
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, or sketch failure.
pub fn min_recc_with_diagnostics(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
) -> Result<(Vec<Edge>, OptDiagnostics), OptError> {
    let run = min_recc_controlled(g, k, s, params, &mut RunControl::none())?;
    Ok((run.plan(), run.diag))
}

/// [`min_recc_with_diagnostics`] under external [`RunControl`]. Resume
/// semantics are identical to [`ch_min_recc_controlled`].
///
/// # Errors
///
/// Invalid source/budget, disconnected graph, sketch failure, a rejected
/// resume prefix, or an observer abort.
pub fn min_recc_controlled(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    hull_guided(g, k, s, params, true, ctrl)
}

fn hull_guided(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    include_direct: bool,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    let n = g.node_count();
    // REM candidate count without materializing Q2.
    let q2 = n * (n - 1) / 2 - g.edge_count();
    validate(g, s, k, q2)?;
    ctrl.check_resume_budget(k)?;
    let evaluator = CandidateEvaluator::from_sketch_params(&params.sketch);
    let mut current = g.clone();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(k);
    let mut diag = OptDiagnostics::default();
    // Fast replay: commit the prefix directly. Every non-terminating
    // iteration of the loop below commits exactly one edge (the
    // degenerate-hull fallback included), so iteration index == plan
    // length and the per-iteration sketch seeds stay aligned.
    for &edge in ctrl.resume {
        current = current.with_edge(edge)?;
        steps.push(PlanStep { edge, score: f64::NAN });
    }
    let resumed = steps.len();
    for iter in resumed..k {
        if ctrl.is_cancelled() {
            return Ok(ControlledRun::cancelled(steps, diag, resumed));
        }
        let sketch_params = params.iteration_sketch(iter);
        let sketch = ResistanceSketch::build(&current, &sketch_params)?;
        let theta = (sketch_params.epsilon / 12.0).clamp(1e-6, 0.999);
        let hull = approx_convex_hull(
            &sketch.point_view(),
            theta,
            ApproxChOptions {
                max_vertices: Some(params.budget(n)),
                threads: sketch_params.threads,
                ..ApproxChOptions::default()
            },
        );
        // Candidate pool: boundary pairs that are still non-edges ...
        let mut candidates: Vec<Edge> = Vec::new();
        for (i, &u) in hull.vertices.iter().enumerate() {
            for &v in &hull.vertices[i + 1..] {
                if !current.has_edge(u, v) {
                    candidates.push(Edge::new(u, v));
                }
            }
        }
        // ... plus (MINRECC) the direct edge to the farthest boundary node.
        let mut direct = None;
        if include_direct {
            let eligible: Vec<usize> = hull
                .vertices
                .iter()
                .copied()
                .filter(|&u| u != s && !current.has_edge(s, u))
                .collect();
            if !eligible.is_empty() {
                let (_, far) = sketch.eccentricity_over(s, &eligible);
                let edge = Edge::new(s, far);
                if !candidates.contains(&edge) {
                    candidates.push(edge);
                }
                direct = candidates.iter().position(|&e| e == edge);
            }
        }
        if candidates.is_empty() {
            // Degenerate hull (e.g. all boundary pairs already connected):
            // fall back to the farthest node overall. `total_cmp` plus the
            // finite filter keeps NaN estimates out of the argmax.
            let dists = evaluator.distance_scan(&sketch, s);
            let fallback = (0..n)
                .filter(|&u| u != s && !current.has_edge(s, u) && dists[u].is_finite())
                .max_by(|&a, &b| dists[a].total_cmp(&dists[b]));
            let Some(u) = fallback else { break };
            let e = Edge::new(s, u);
            ctrl.observe(&IterationEvent {
                iteration: steps.len(),
                edge: e,
                score: dists[u],
                full_evals: 0,
                lazy_hits: 0,
            })?;
            current = current.with_edge(e)?;
            steps.push(PlanStep { edge: e, score: dists[u] });
            continue;
        }
        let mut evals_this_iter = 0usize;
        let chosen = match params.eval {
            EvalMode::ShermanMorrison => {
                // Screen the whole pool on the sketch, then let the
                // blocked + parallel CG engine judge the `CONFIRM` best
                // and the direct edge (DESIGN §17). The confirmed set
                // keeps candidate order, so the first-best selection
                // below (strictly smaller wins, earliest candidate wins
                // ties) and the skip/degrade accounting run over its
                // scores exactly as they ran over the whole pool: a pool
                // of at most `CONFIRM` candidates gets the whole-pool
                // decision, and so does any pool whose CG-best is
                // confirmed.
                let base = evaluator.distance_scan(&sketch, s);
                let Some(screen) = screen_edges(
                    &sketch,
                    &base,
                    s,
                    &candidates,
                    evaluator.threads,
                    ctrl.cancel,
                ) else {
                    return Ok(ControlledRun::cancelled(steps, diag, resumed));
                };
                let confirmed = confirm_set(iter, &candidates, &screen, direct, &mut diag);
                let Some((scores, stats)) = evaluator.evaluate_edges_cancellable(
                    &current,
                    &base,
                    s,
                    &confirmed,
                    ctrl.cancel,
                ) else {
                    return Ok(ControlledRun::cancelled(steps, diag, resumed));
                };
                diag.blocks_solved += stats.blocks_solved;
                diag.full_evals += scores.len();
                evals_this_iter = scores.len();
                let mut best: Option<(Edge, f64)> = None;
                for sc in &scores {
                    if !sc.converged {
                        diag.skipped_candidates += 1;
                        diag.notes.push(format!(
                            "iteration {iter}: skipped candidate {:?} \
                             (solve residual {:.3e})",
                            sc.edge, sc.residual
                        ));
                        continue;
                    }
                    if sc.escalated {
                        diag.degraded_evaluations += 1;
                    }
                    if !sc.score.is_finite() {
                        diag.skipped_candidates += 1;
                        diag.notes.push(format!(
                            "iteration {iter}: skipped candidate {:?} (non-finite score)",
                            sc.edge
                        ));
                        continue;
                    }
                    match best {
                        Some((_, bc)) if sc.score >= bc => {}
                        _ => best = Some((sc.edge, sc.score)),
                    }
                }
                best
            }
            EvalMode::Faithful => {
                let mut best: Option<(Edge, f64)> = None;
                for &e in &candidates {
                    if ctrl.is_cancelled() {
                        return Ok(ControlledRun::cancelled(steps, diag, resumed));
                    }
                    diag.full_evals += 1;
                    evals_this_iter += 1;
                    let augmented = current.with_edge(e)?;
                    let probe = match ResistanceSketch::build(&augmented, &sketch_params) {
                        Ok(p) => p,
                        Err(err) => {
                            diag.skipped_candidates += 1;
                            diag.notes.push(format!(
                                "iteration {iter}: skipped candidate {e:?} (probe sketch: {err})"
                            ));
                            continue;
                        }
                    };
                    let (c_after, _) = probe.eccentricity(s);
                    if !c_after.is_finite() {
                        diag.skipped_candidates += 1;
                        diag.notes.push(format!(
                            "iteration {iter}: skipped candidate {e:?} (non-finite score)"
                        ));
                        continue;
                    }
                    match best {
                        Some((_, bc)) if c_after >= bc => {}
                        _ => best = Some((e, c_after)),
                    }
                }
                best
            }
        };
        let Some((chosen, score)) = chosen else {
            diag.notes.push(format!(
                "iteration {iter}: every candidate evaluation failed; stopping early \
                 with {} of {k} edges planned",
                steps.len()
            ));
            break;
        };
        ctrl.observe(&IterationEvent {
            iteration: steps.len(),
            edge: chosen,
            score,
            full_evals: evals_this_iter,
            lazy_hits: 0,
        })?;
        current = current.with_edge(chosen)?;
        steps.push(PlanStep { edge: chosen, score });
    }
    Ok(ControlledRun::finished(steps, diag, resumed))
}

/// The candidates CG confirms, in candidate order: the [`CONFIRM`] best
/// screen scores plus MINRECC's `direct` edge wherever it ranks (the
/// screen's error is correlated across pairs sharing an endpoint, and
/// the direct edge was the CG-best the top 64 missed; DESIGN §17.2). A
/// non-finite screen score is skipped and counted (DESIGN §7.4), never
/// confirmed.
fn confirm_set(
    iter: usize,
    candidates: &[Edge],
    screen: &[f64],
    direct: Option<usize>,
    diag: &mut OptDiagnostics,
) -> Vec<Edge> {
    for (e, score) in candidates.iter().zip(screen) {
        if !score.is_finite() {
            diag.skipped_candidates += 1;
            diag.notes.push(format!(
                "iteration {iter}: skipped candidate {e:?} (non-finite screen score)"
            ));
        }
    }
    let mut picked = shortlist(screen, CONFIRM);
    if let Some(d) = direct.filter(|&d| screen[d].is_finite()) {
        if let Err(at) = picked.binary_search(&d) {
            picked.insert(at, d);
        }
    }
    picked.into_iter().map(|i| candidates[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::exact_trajectory;
    use reecc_graph::generators::{barabasi_albert, line, random_dense_small};

    fn params() -> OptimizeParams {
        OptimizeParams {
            sketch: SketchParams { epsilon: 0.3, seed: 11, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn far_connects_source_to_far_end() {
        let g = line(10);
        let plan = far_min_recc(&g, 1, 0, &params()).unwrap();
        assert_eq!(plan.len(), 1);
        assert!(plan[0].touches(0));
        // Farthest node from 0 on a line is 9 (robust even with ε = 0.3).
        assert_eq!(plan[0], Edge::new(0, 9));
    }

    #[test]
    fn far_trajectory_monotone() {
        let g = barabasi_albert(40, 2, 9);
        let plan = far_min_recc(&g, 3, 0, &params()).unwrap();
        let traj = exact_trajectory(&g, 0, &plan).unwrap();
        for w in traj.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn cen_picks_distinct_spread_targets() {
        let g = line(12);
        let plan = cen_min_recc(&g, 3, 0, &params()).unwrap();
        assert_eq!(plan.len(), 3);
        assert!(plan.iter().all(|e| e.touches(0)));
        let mut targets: Vec<usize> = plan.iter().map(|e| e.other(0)).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 3, "targets must be distinct");
        // First pick is the far end.
        assert_eq!(plan[0].other(0), 11);
    }

    #[test]
    fn ch_picks_a_peripheral_pair() {
        // On a line with source in the middle, CHMINRECC should connect
        // the two ends (the Figure 6(a) insight): c drops to 1.5.
        let g = line(6);
        let plan = ch_min_recc(&g, 1, 2, &params()).unwrap();
        let traj = exact_trajectory(&g, 2, &plan).unwrap();
        assert!(
            traj[1] < 2.2,
            "hull-pair addition should beat direct attachment: {traj:?} via {plan:?}"
        );
    }

    #[test]
    fn min_recc_at_least_as_good_as_ch_on_figure6b() {
        // Figure 6(b): source = endpoint (node 0). The optimal move is the
        // direct edge (0,5); CHMINRECC's pair-only pool misses it.
        let g = line(6);
        let p = params();
        let ch = ch_min_recc(&g, 1, 0, &p).unwrap();
        let mr = min_recc(&g, 1, 0, &p).unwrap();
        let c_ch = exact_trajectory(&g, 0, &ch).unwrap()[1];
        let c_mr = exact_trajectory(&g, 0, &mr).unwrap()[1];
        assert!(c_mr <= c_ch + 1e-9, "MINRECC {c_mr} vs CHMINRECC {c_ch}");
        assert!((c_mr - 1.5).abs() < 0.2, "direct edge (0,5) gives 1.5, got {c_mr}");
    }

    #[test]
    fn faithful_and_sherman_morrison_agree_on_small_graph() {
        let g = line(8);
        let p_sm = params();
        let p_faithful = OptimizeParams { eval: EvalMode::Faithful, ..p_sm };
        let sm = min_recc(&g, 2, 3, &p_sm).unwrap();
        let faithful = min_recc(&g, 2, 3, &p_faithful).unwrap();
        // Decisions may differ by sketch noise; objective values must be
        // close.
        let c_sm = exact_trajectory(&g, 3, &sm).unwrap()[2];
        let c_f = exact_trajectory(&g, 3, &faithful).unwrap()[2];
        assert!((c_sm - c_f).abs() < 0.35, "sm {c_sm} vs faithful {c_f}");
    }

    #[test]
    fn plans_contain_only_new_distinct_edges() {
        let g = random_dense_small(12, 20, 3);
        for plan in [
            far_min_recc(&g, 3, 0, &params()).unwrap(),
            cen_min_recc(&g, 3, 0, &params()).unwrap(),
            ch_min_recc(&g, 3, 0, &params()).unwrap(),
            min_recc(&g, 3, 0, &params()).unwrap(),
        ] {
            let mut sorted = plan.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), plan.len(), "duplicate edges in {plan:?}");
            for e in &plan {
                assert!(!g.has_edge(e.u, e.v), "{e:?} already existed");
            }
        }
    }

    #[test]
    fn determinism() {
        let g = barabasi_albert(30, 2, 5);
        let a = min_recc(&g, 2, 1, &params()).unwrap();
        let b = min_recc(&g, 2, 1, &params()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid() {
        let g = line(5);
        assert!(far_min_recc(&g, 0, 0, &params()).is_err());
        assert!(cen_min_recc(&g, 1, 9, &params()).is_err());
        assert!(ch_min_recc(&g, 0, 0, &params()).is_err());
    }

    #[test]
    fn healthy_run_has_clean_diagnostics() {
        let g = barabasi_albert(30, 2, 5);
        let (plan, diag) = min_recc_with_diagnostics(&g, 2, 1, &params()).unwrap();
        assert_eq!(plan.len(), 2);
        assert!(diag.clean(), "diagnostics: {diag:?}");
    }

    #[test]
    fn starved_solves_are_skipped_not_fatal() {
        // CG capped at one iteration with the whole escalation ladder
        // disabled: no candidate solve can converge, so the heuristic must
        // stop early with recorded skips — never panic or return Err.
        let g = line(20);
        let crippled = OptimizeParams {
            sketch: SketchParams {
                epsilon: 0.3,
                seed: 11,
                cg: reecc_linalg::CgOptions { max_iterations: Some(1), ..Default::default() },
                recovery: reecc_linalg::RecoveryPolicy {
                    tolerance_relaxation: 1.0,
                    iteration_boost: 1,
                    dense_fallback_max_nodes: 0,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let (plan, diag) = min_recc_with_diagnostics(&g, 2, 0, &crippled).unwrap();
        assert!(plan.len() < 2, "no candidate should survive evaluation: {plan:?}");
        assert!(!diag.clean());
        assert!(diag.skipped_candidates > 0);
        assert!(!diag.notes.is_empty());
    }

    #[test]
    fn ladder_rescues_starved_solves_when_enabled() {
        // Same starved CG budget but the default ladder (dense fallback on):
        // every candidate is still evaluable, the plan completes, and the
        // degraded evaluations are counted.
        let g = line(20);
        let starved = OptimizeParams {
            sketch: SketchParams {
                epsilon: 0.3,
                seed: 11,
                cg: reecc_linalg::CgOptions { max_iterations: Some(1), ..Default::default() },
                ..Default::default()
            },
            ..Default::default()
        };
        let (plan, diag) = min_recc_with_diagnostics(&g, 2, 0, &starved).unwrap();
        assert_eq!(plan.len(), 2, "diagnostics: {diag:?}");
        assert_eq!(diag.skipped_candidates, 0, "diagnostics: {diag:?}");
        assert!(diag.degraded_evaluations > 0);
    }

    #[test]
    fn non_finite_screen_scores_are_skipped_counted_and_never_confirmed() {
        let candidates: Vec<Edge> = (1..9).map(|v| Edge::new(0, v)).collect();
        let screen = [2.0, f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY, 0.5, 4.0];
        let mut diag = OptDiagnostics::default();
        let confirmed = confirm_set(5, &candidates, &screen, None, &mut diag);
        let want: Vec<Edge> = [0usize, 2, 4, 6, 7].iter().map(|&i| candidates[i]).collect();
        assert_eq!(confirmed, want);
        assert_eq!(diag.skipped_candidates, 3);
        assert_eq!(diag.notes.len(), 3);
        assert!(diag.notes.iter().all(|n| n.starts_with("iteration 5: skipped candidate")));
        assert!(diag.notes[0].contains("non-finite screen score"), "{:?}", diag.notes);

        // A direct edge with a non-finite screen score is not confirmed
        // either.
        let mut diag = OptDiagnostics::default();
        assert_eq!(confirm_set(5, &candidates, &screen, Some(1), &mut diag), want);
        assert_eq!(diag.skipped_candidates, 3);

        // A pool larger than CONFIRM keeps the CONFIRM lowest scores ...
        let candidates: Vec<Edge> = (1..=100).map(|v| Edge::new(0, v)).collect();
        let screen: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut diag = OptDiagnostics::default();
        let confirmed = confirm_set(0, &candidates, &screen, None, &mut diag);
        assert_eq!(confirmed.len(), CONFIRM);
        assert!(confirmed.windows(2).all(|w| w[0] < w[1]), "candidate order");
        assert!(confirmed.iter().all(|e| screen[e.v - 1] < CONFIRM as f64));
        assert!(diag.clean() && diag.notes.is_empty());
        // ... plus the direct edge wherever it ranks, in candidate order,
        // and only once when it ranks among them.
        let (worst, best) = (27usize, 0usize);
        assert_eq!((screen[worst], screen[best]), (99.0, 0.0));
        let with_direct = confirm_set(0, &candidates, &screen, Some(worst), &mut diag);
        assert_eq!(with_direct.len(), CONFIRM + 1);
        assert!(with_direct.windows(2).all(|w| w[0] < w[1]), "candidate order");
        let without: Vec<Edge> =
            with_direct.iter().copied().filter(|&e| e != candidates[worst]).collect();
        assert_eq!(without, confirmed);
        assert_eq!(confirm_set(0, &candidates, &screen, Some(best), &mut diag), confirmed);
    }

    #[test]
    fn controlled_resume_matches_uninterrupted_run_for_every_heuristic() {
        type Controlled = fn(
            &Graph,
            usize,
            usize,
            &OptimizeParams,
            &mut RunControl<'_>,
        ) -> Result<ControlledRun, OptError>;
        let g = barabasi_albert(26, 2, 7);
        let p = params();
        let cases: [(&str, Controlled); 4] = [
            ("far", far_min_recc_controlled),
            ("cen", cen_min_recc_controlled),
            ("ch", ch_min_recc_controlled),
            ("minrecc", min_recc_controlled),
        ];
        for (name, f) in cases {
            let full = f(&g, 3, 1, &p, &mut RunControl::none()).unwrap();
            let plan = full.plan();
            assert_eq!(plan.len(), 3, "{name}");
            for cut in 0..=plan.len() {
                let mut ctrl = RunControl { resume: &plan[..cut], ..RunControl::none() };
                let resumed = f(&g, 3, 1, &p, &mut ctrl).unwrap();
                assert_eq!(resumed.plan(), plan, "{name} cut={cut}");
                assert_eq!(resumed.resumed, cut, "{name} cut={cut}");
            }
        }
    }

    #[test]
    fn controlled_cancel_and_observer_hooks_work() {
        use std::sync::atomic::AtomicBool;
        let g = barabasi_albert(26, 2, 7);
        let p = params();
        let flag = AtomicBool::new(true);
        let mut ctrl = RunControl { cancel: Some(&flag), ..RunControl::none() };
        let run = min_recc_controlled(&g, 2, 1, &p, &mut ctrl).unwrap();
        assert!(run.cancelled);
        assert!(run.steps.is_empty());

        let mut seen = Vec::new();
        let mut obs = |ev: &IterationEvent| {
            seen.push(ev.iteration);
            Ok(())
        };
        let mut ctrl = RunControl { observer: Some(&mut obs), ..RunControl::none() };
        let run = far_min_recc_controlled(&g, 3, 1, &p, &mut ctrl).unwrap();
        assert!(!run.cancelled);
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(run.steps.iter().all(|st| st.score.is_finite()));

        let mut fail = |_: &IterationEvent| Err("checkpoint write failed".to_string());
        let mut ctrl = RunControl { observer: Some(&mut fail), ..RunControl::none() };
        let err = cen_min_recc_controlled(&g, 2, 1, &p, &mut ctrl).unwrap_err();
        assert!(matches!(err, OptError::Aborted(_)), "{err:?}");
    }

    #[test]
    fn saturated_source_stops_early() {
        // Star: the hub is adjacent to everyone; REMD from the hub has no
        // candidates at all -> validate() errors.
        let g = reecc_graph::generators::star(6);
        assert!(far_min_recc(&g, 1, 0, &params()).is_err());
        // A leaf has non-edges to the other leaves: k larger than that
        // errors; k within works.
        let plan = far_min_recc(&g, 4, 1, &params()).unwrap();
        assert_eq!(plan.len(), 4);
    }
}
