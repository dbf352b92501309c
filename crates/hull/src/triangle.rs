//! Kalantari's Triangle Algorithm: approximate convex-hull membership.
//!
//! Given a query point `p`, a candidate subset `hull ⊆ S` and a tolerance
//! `tol`, the algorithm maintains an iterate `x ∈ conv(hull)` and either
//!
//! * finds `x` with `‖p − x‖ ≤ tol` (approximate membership), or
//! * finds a *witness* `x` with `‖x − v‖ < ‖p − v‖` for every `v ∈ hull`,
//!   which certifies that the bisecting hyperplane of `(x, p)` strictly
//!   separates `conv(hull)` from `p`; in particular
//!   `dist(p, conv(hull)) ≥ ‖p − x‖ / 2`.
//!
//! Each iteration picks the *pivot* `v ∈ hull` maximizing `(p − x)·v` and
//! moves `x` to the point of segment `[x, v]` closest to `p`. The number of
//! iterations to reach gap `ε·D` is `O(1/ε²)` — this is the `1/θ²` factor
//! in Lemma 5.3's running time.

use reecc_linalg::vector::{dist_sq, dot, LANES};

use crate::points::Points;

/// Options for the membership test.
#[derive(Debug, Clone, Copy)]
pub struct TriangleOptions {
    /// Hard cap on pivot iterations (safety net; the gap bound normally
    /// terminates first).
    pub max_iterations: usize,
}

impl Default for TriangleOptions {
    fn default() -> Self {
        TriangleOptions { max_iterations: 10_000 }
    }
}

/// Result of a membership query.
#[derive(Debug, Clone, PartialEq)]
pub enum Membership {
    /// `p` is within `tol` of `conv(hull)`; carries the final gap.
    Inside {
        /// Final distance `‖p − x‖`.
        gap: f64,
    },
    /// A witness separates `p` from `conv(hull)`; carries the witness
    /// point and the gap `‖p − x‖` (so `dist(p, conv(hull)) ≥ gap / 2`).
    Outside {
        /// The witness iterate `x ∈ conv(hull)`.
        witness: Vec<f64>,
        /// Distance from `p` to the witness.
        gap: f64,
    },
    /// Iteration cap hit before deciding; carries the best gap reached.
    /// Callers should treat this conservatively (the hull loop treats it
    /// as *inside* so it never loops forever adding vertices).
    Undecided {
        /// Best gap reached.
        gap: f64,
    },
}

impl Membership {
    /// Whether the query concluded the point is (approximately) inside.
    pub fn is_inside(&self) -> bool {
        matches!(self, Membership::Inside { .. })
    }
}

/// Approximate membership of `p` in the convex hull of
/// `{points[i] : i ∈ hull}` with additive tolerance `tol`.
///
/// Packs the hull into a dimension-major vertex block and runs the same
/// test APPROXCH runs against its growing vertex set.
///
/// # Panics
///
/// Panics if `hull` is empty, contains out-of-range indices, or `p` has the
/// wrong dimension.
pub fn membership<P: Points>(
    points: &P,
    hull: &[usize],
    p: &[f64],
    tol: f64,
    opts: TriangleOptions,
) -> Membership {
    assert!(!hull.is_empty(), "hull subset must be non-empty");
    assert_eq!(p.len(), points.dim(), "query dimension mismatch");
    let block = VertexBlock::pack(points, hull);
    let mut ws = Workspace::new(points.dim());
    match ws.test(&block, p, tol, opts) {
        Verdict::Inside(gap) => Membership::Inside { gap },
        Verdict::Outside(gap) => Membership::Outside { witness: ws.x, gap },
        Verdict::Undecided(gap) => Membership::Undecided { gap },
    }
}

/// A vertex set packed for the membership sweeps: dimension-major blocks
/// of [`LANES`] vertices. Entry `t` of vertex `LANES·b + l` sits at
/// `data[(b·d + t)·LANES + l]`, so a sweep reads each block stride-1 and
/// advances its vertices as independent lanes; the last block's unused
/// lanes hold zeros. APPROXCH grows it by one column per added vertex.
#[derive(Debug, Clone)]
pub(crate) struct VertexBlock {
    d: usize,
    len: usize,
    data: Vec<f64>,
}

impl VertexBlock {
    /// An empty set of `d`-dimensional vertices.
    pub(crate) fn new(d: usize) -> Self {
        VertexBlock { d, len: 0, data: Vec::new() }
    }

    /// The vertices `ids` of `points`, in that order.
    pub(crate) fn pack<P: Points + ?Sized>(points: &P, ids: &[usize]) -> Self {
        let mut block = VertexBlock::new(points.dim());
        for &i in ids {
            block.push(points.point(i));
        }
        block
    }

    /// Append vertex `x` as the next column.
    pub(crate) fn push(&mut self, x: &[f64]) {
        let d = self.d;
        assert_eq!(x.len(), d, "vertex dimension mismatch");
        let (b, l) = (self.len / LANES, self.len % LANES);
        if l == 0 {
            self.data.resize(self.data.len() + d * LANES, 0.0);
        }
        let block = &mut self.data[b * d * LANES..(b + 1) * d * LANES];
        for (lanes, &v) in block.chunks_exact_mut(LANES).zip(x) {
            lanes[l] = v;
        }
        self.len += 1;
    }

    /// Copy vertex `k` into `out`.
    fn vertex(&self, k: usize, out: &mut [f64]) {
        let d = self.d;
        let (b, l) = (k / LANES, k % LANES);
        let block = &self.data[b * d * LANES..(b + 1) * d * LANES];
        for (o, lanes) in out.iter_mut().zip(block.chunks_exact(LANES)) {
            *o = lanes[l];
        }
    }

    /// `scores[k] = dist_sq(v_k, q)` (`DOT = false`) or `dot(q, v_k)`
    /// (`DOT = true`) for every vertex, each bitwise that function's value;
    /// `scores` is resized to whole blocks.
    fn sweep<const DOT: bool>(&self, q: &[f64], scores: &mut Vec<f64>) {
        scores.resize(self.data.len() / self.d.max(1), 0.0);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reports AVX2 at runtime.
                unsafe { sweep_blocks_avx2::<DOT>(&self.data, self.d, q, scores) };
                return;
            }
        }
        sweep_blocks::<DOT>(&self.data, self.d, q, scores);
    }

    /// The vertex nearest to `p`, with `min_by`'s rule: the first of equal
    /// minima.
    ///
    /// # Panics
    ///
    /// Panics with `"finite distances"` if a distance is NaN and there are
    /// at least two vertices, as the `min_by` comparison did.
    fn nearest(&self, p: &[f64], scores: &mut Vec<f64>) -> usize {
        self.sweep::<false>(p, scores);
        let dists = &scores[..self.len];
        assert!(self.len < 2 || !dists.iter().any(|d| d.is_nan()), "finite distances");
        let mut best = 0;
        for (k, &d2) in dists.iter().enumerate().skip(1) {
            if d2 < dists[best] {
                best = k;
            }
        }
        best
    }

    /// The pivot: the vertex maximizing `dot(dir, v)`, the first of equal
    /// maxima (a later vertex replaces the running best unless
    /// `score <= best`), with its score.
    fn pivot(&self, dir: &[f64], scores: &mut Vec<f64>) -> (usize, f64) {
        self.sweep::<true>(dir, scores);
        let mut best: Option<(usize, f64)> = None;
        for (k, &score) in scores[..self.len].iter().enumerate() {
            match best {
                Some((_, bs)) if score <= bs => {}
                _ => best = Some((k, score)),
            }
        }
        best.expect("non-empty hull")
    }
}

/// The block kernel: for each block of [`LANES`] vertices, [`LANES`]
/// in-order accumulator chains, each the fold of [`dist_sq`] (`v − q`,
/// squared) or [`dot`] (`q·v`): from `-0.0`, element by element, with an
/// unfused multiply and add. Vectorizing across the lanes keeps every
/// lane's op sequence, so the AVX2 compilation below gives the same bits
/// as this one.
#[inline(always)]
fn sweep_blocks<const DOT: bool>(data: &[f64], d: usize, q: &[f64], scores: &mut [f64]) {
    for (block, out) in data.chunks_exact(d * LANES).zip(scores.chunks_exact_mut(LANES)) {
        let mut acc = [-0.0f64; LANES];
        for (lanes, &w) in block.chunks_exact(LANES).zip(q) {
            for (s, &v) in acc.iter_mut().zip(lanes) {
                if DOT {
                    *s += w * v;
                } else {
                    let diff = v - w;
                    *s += diff * diff;
                }
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// [`sweep_blocks`] compiled with AVX2 enabled (runtime-gated).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_blocks_avx2<const DOT: bool>(
    data: &[f64],
    d: usize,
    q: &[f64],
    scores: &mut [f64],
) {
    sweep_blocks::<DOT>(data, d, q, scores);
}

/// A membership verdict; on `Outside` the workspace's `x` is the witness
/// and its `dir` is `p − x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    Inside(f64),
    Outside(f64),
    Undecided(f64),
}

/// The buffers one membership test needs, reused across tests: the
/// iterate `x`, the direction `p − x`, the step `v − x`, and the
/// per-vertex scores of a block sweep.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    pub(crate) x: Vec<f64>,
    pub(crate) dir: Vec<f64>,
    vx: Vec<f64>,
    scores: Vec<f64>,
}

impl Workspace {
    /// Buffers for `d`-dimensional points.
    pub(crate) fn new(d: usize) -> Self {
        Workspace { x: vec![0.0; d], dir: vec![0.0; d], vx: vec![0.0; d], scores: Vec::new() }
    }

    /// The Triangle Algorithm for `p` against the vertices in `block`.
    pub(crate) fn test(
        &mut self,
        block: &VertexBlock,
        p: &[f64],
        tol: f64,
        opts: TriangleOptions,
    ) -> Verdict {
        let tol_sq = tol * tol;
        let p_norm_sq = dot(p, p);

        // Start from the hull point closest to p.
        let start = block.nearest(p, &mut self.scores);
        block.vertex(start, &mut self.x);

        for _ in 0..opts.max_iterations {
            // `dist_sq(x, p)`, `dot(x, x)` and `dir = p − x` in one pass:
            // two independent chains, each in its function's order.
            let (mut gap_sq, mut x_norm_sq) = (-0.0f64, -0.0f64);
            for ((di, &pi), &xi) in self.dir.iter_mut().zip(p).zip(&self.x) {
                let diff = xi - pi;
                gap_sq += diff * diff;
                x_norm_sq += xi * xi;
                *di = pi - xi;
            }
            if gap_sq <= tol_sq {
                return Verdict::Inside(gap_sq.sqrt());
            }
            // Pivot search: maximize (p - x)·v over hull; v is a pivot iff
            // d(x, v) >= d(p, v), i.e. 2 (p - x)·v >= ||p||² - ||x||².
            let (k, score) = block.pivot(&self.dir, &mut self.scores);
            if 2.0 * score < p_norm_sq - x_norm_sq {
                // No pivot exists anywhere in the hull: x is a witness.
                return Verdict::Outside(gap_sq.sqrt());
            }
            // Move x to the closest point to p on segment [x, v]: `v − x`,
            // `dot(vx, vx)` and `dot(dir, vx)` in one pass.
            block.vertex(k, &mut self.vx);
            let (mut vx_sq, mut dir_vx) = (-0.0f64, -0.0f64);
            for ((vi, &xi), &di) in self.vx.iter_mut().zip(&self.x).zip(&self.dir) {
                let step = *vi - xi;
                *vi = step;
                vx_sq += step * step;
                dir_vx += di * step;
            }
            if vx_sq == 0.0 {
                // Degenerate pivot (v == x); cannot make progress.
                return Verdict::Undecided(gap_sq.sqrt());
            }
            let alpha = (dir_vx / vx_sq).clamp(0.0, 1.0);
            if alpha == 0.0 {
                // No progress possible along this (best) pivot.
                return Verdict::Undecided(gap_sq.sqrt());
            }
            for (xi, di) in self.x.iter_mut().zip(&self.vx) {
                *xi += alpha * di;
            }
        }
        Verdict::Undecided(dist_sq(&self.x, p).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;

    fn square_points() -> PointSet {
        PointSet::from_points(&[vec![0.0, 0.0], vec![2.0, 0.0], vec![2.0, 2.0], vec![0.0, 2.0]])
    }

    #[test]
    fn interior_point_is_inside() {
        let ps = square_points();
        let m = membership(&ps, &[0, 1, 2, 3], &[1.0, 1.0], 1e-6, TriangleOptions::default());
        assert!(m.is_inside(), "{m:?}");
    }

    #[test]
    fn vertex_is_inside() {
        let ps = square_points();
        let m = membership(&ps, &[0, 1, 2, 3], &[2.0, 2.0], 1e-9, TriangleOptions::default());
        assert!(m.is_inside());
    }

    #[test]
    fn far_outside_point_is_outside_with_witness() {
        let ps = square_points();
        let m = membership(&ps, &[0, 1, 2, 3], &[5.0, 1.0], 1e-6, TriangleOptions::default());
        match m {
            Membership::Outside { witness, gap } => {
                // Distance from (5,1) to the square is 3; gap/2 lower-bounds it.
                assert!(gap / 2.0 <= 3.0 + 1e-9);
                assert!(gap > 0.0);
                // Witness must satisfy d(x, v) < d(p, v) for all vertices.
                for i in 0..4 {
                    let dxv = dist_sq(&witness, ps.point(i));
                    let dpv = dist_sq(&[5.0, 1.0], ps.point(i));
                    assert!(dxv < dpv, "witness condition violated at vertex {i}");
                }
            }
            other => panic!("expected Outside, got {other:?}"),
        }
    }

    #[test]
    fn near_boundary_point_within_tolerance_is_inside() {
        let ps = square_points();
        // 0.05 outside the right edge, tolerance 0.1.
        let m = membership(&ps, &[0, 1, 2, 3], &[2.05, 1.0], 0.1, TriangleOptions::default());
        assert!(m.is_inside(), "{m:?}");
    }

    #[test]
    fn subset_hull_excludes_region() {
        let ps = square_points();
        // Only the bottom edge: the top corners are far from conv{(0,0),(2,0)}.
        let m = membership(&ps, &[0, 1], &[2.0, 2.0], 0.1, TriangleOptions::default());
        assert!(matches!(m, Membership::Outside { .. }), "{m:?}");
    }

    #[test]
    fn single_point_hull() {
        let ps = PointSet::from_points(&[vec![1.0, 1.0], vec![3.0, 3.0]]);
        let m = membership(&ps, &[0], &[1.0, 1.0], 1e-12, TriangleOptions::default());
        assert!(m.is_inside());
        let m2 = membership(&ps, &[0], &[3.0, 3.0], 0.5, TriangleOptions::default());
        assert!(matches!(m2, Membership::Outside { .. } | Membership::Undecided { .. }));
    }

    #[test]
    fn high_dimensional_simplex() {
        // Standard basis vectors in R^8; their centroid is inside, 2*e_0 is
        // outside.
        let dim = 8;
        let pts: Vec<Vec<f64>> = (0..dim)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i] = 1.0;
                v
            })
            .collect();
        let ps = PointSet::from_points(&pts);
        let all: Vec<usize> = (0..dim).collect();
        let centroid = vec![1.0 / dim as f64; dim];
        let m = membership(&ps, &all, &centroid, 1e-6, TriangleOptions::default());
        assert!(m.is_inside(), "{m:?}");
        let mut far = vec![0.0; dim];
        far[0] = 2.0;
        let m2 = membership(&ps, &all, &far, 0.1, TriangleOptions::default());
        assert!(matches!(m2, Membership::Outside { .. }), "{m2:?}");
    }

    #[test]
    fn iteration_cap_yields_undecided_or_result() {
        let ps = square_points();
        let m = membership(
            &ps,
            &[0, 1, 2, 3],
            &[1.0, 1.0],
            1e-15,
            TriangleOptions { max_iterations: 1 },
        );
        // With one iteration the tiny tolerance cannot be met from a corner.
        assert!(!m.is_inside());
    }

    /// Seeded coordinates in `[-1, 1)` with exact zeros of both signs.
    fn coords(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match i % 9 {
                2 => 0.0,
                5 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    #[test]
    fn block_sweeps_match_dot_and_dist_sq_bitwise() {
        for d in [1usize, 2, 7, 64] {
            for h in [1usize, 7, 8, 9, 20] {
                let ps = PointSet::from_flat(d, coords(h * d, (d * 100 + h) as u64));
                let ids: Vec<usize> = (0..h).collect();
                let block = VertexBlock::pack(&ps, &ids);
                let q = coords(d, 3);
                let (mut dots, mut dists) = (Vec::new(), Vec::new());
                block.sweep::<true>(&q, &mut dots);
                block.sweep::<false>(&q, &mut dists);
                // The portable compilation, whatever the CPU dispatches to.
                let mut plain = vec![0.0; dots.len()];
                sweep_blocks::<true>(&block.data, d, &q, &mut plain);
                for k in 0..h {
                    let (dot_k, dist_k) = (dot(&q, ps.point(k)), dist_sq(ps.point(k), &q));
                    assert_eq!(dots[k].to_bits(), dot_k.to_bits(), "dot d={d} h={h} k={k}");
                    assert_eq!(plain[k].to_bits(), dot_k.to_bits(), "plain d={d} h={h} k={k}");
                    assert_eq!(dists[k].to_bits(), dist_k.to_bits(), "dist d={d} h={h} k={k}");
                }
            }
        }
    }

    #[test]
    fn block_dot_keeps_negative_zero() {
        for d in [1usize, 2, 7, 64] {
            let q: Vec<f64> = (0..d).map(|t| if t % 2 == 0 { 1.0 } else { -2.0 }).collect();
            let v: Vec<f64> = (0..d).map(|t| if t % 2 == 0 { -0.0 } else { 0.0 }).collect();
            let block = VertexBlock::pack(&PointSet::from_flat(d, v.repeat(9)), &[0, 3, 8]);
            let mut scores = Vec::new();
            block.sweep::<true>(&q, &mut scores);
            for &score in &scores[..3] {
                assert!(score == 0.0 && score.is_sign_negative(), "d={d}: {score}");
                assert_eq!(score.to_bits(), dot(&q, &v).to_bits());
            }
        }
    }

    /// Exact ties placed at every pair of positions across three blocks:
    /// the start search keeps the first minimum (`min_by`), the pivot the
    /// first maximum.
    #[test]
    fn block_ties_keep_the_first_vertex() {
        let h = 20;
        for i in 0..h {
            for j in i + 1..h {
                let mut xs: Vec<f64> = (0..h).map(|k| 1.0 + (k % 3) as f64).collect();
                xs[i] = 0.5;
                xs[j] = -0.5;
                let near =
                    VertexBlock::pack(&PointSet::from_flat(1, xs), &(0..h).collect::<Vec<_>>());
                let mut scores = Vec::new();
                assert_eq!(near.nearest(&[0.0], &mut scores), i, "start {i},{j}");
                let mut xs: Vec<f64> = (0..h).map(|k| (k % 3) as f64).collect();
                xs[i] = 5.0;
                xs[j] = 5.0;
                let far =
                    VertexBlock::pack(&PointSet::from_flat(1, xs), &(0..h).collect::<Vec<_>>());
                assert_eq!(far.pivot(&[1.0], &mut scores), (i, 5.0), "pivot {i},{j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite distances")]
    fn nan_query_panics_in_the_start_search() {
        let ps = square_points();
        let _ = membership(&ps, &[0, 1, 2], &[f64::NAN, 1.0], 0.1, TriangleOptions::default());
    }
}
