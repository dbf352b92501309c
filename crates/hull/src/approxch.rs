//! APPROXCH: robust approximate vertex enumeration (AKZ-style).
//!
//! Returns a subset `Ŝ` of hull vertices such that every input point is
//! within `θ·D(S)` of `conv(Ŝ)` (Lemma 5.3's interface). The loop:
//!
//! 1. Seed `Ŝ` with the two endpoints of a farthest-point diameter sweep.
//! 2. Scan all points; test each against `conv(Ŝ)` with the Triangle
//!    Algorithm at tolerance `θ·D̂`.
//! 3. On a witness, add the point of `S` extremal in the witness direction
//!    `p − x`. The witness property guarantees this point is *not* already
//!    in `Ŝ` and is extreme for a linear functional, i.e. lies on the hull
//!    boundary — so `Ŝ` grows by a genuine boundary point every time.
//! 4. Repeat the scan until a full pass adds nothing.
//!
//! Steps 1 and 3 sweep all `n` points; they run on the lane kernels of
//! [`crate::points`], split over `opts.threads`. Step 2 reads the current
//! vertices from a dimension-major block that grows with `Ŝ`
//! ([`crate::triangle`]). Neither changes a bit of the result (DESIGN
//! §16).

use crate::points::{argmax_dot, diameter_estimate, Points};
use crate::triangle::{
    membership, Membership, TriangleOptions, Verdict, VertexBlock, Workspace,
};

/// Work (`n·d` multiply-adds per full-`n` sweep) under which APPROXCH
/// stays on the calling thread. Each sweep spawns its threads afresh
/// (60–80 µs each on a 2-vCPU VM), and below this floor one thread
/// measured faster than two (DESIGN §16.2).
const PARALLEL_MIN_WORK: usize = 1 << 19;

/// Options for [`approx_convex_hull`]. The default is unbounded, on
/// available parallelism, with [`TriangleOptions::default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ApproxChOptions {
    /// Cap on the number of returned vertices `l` (safety valve for
    /// adversarial inputs like points on a sphere). `None` = unbounded.
    pub max_vertices: Option<usize>,
    /// Worker threads for the full-`n` sweeps (diameter, seeds and the
    /// witness-direction argmax); `0` = use available parallelism, as in
    /// `SketchParams::threads`. Every count gives the same [`HullResult`].
    /// Inputs with `n·d < 2^19` stay on the calling thread.
    pub threads: usize,
    /// Triangle-Algorithm iteration cap per membership query.
    pub triangle: TriangleOptions,
}

/// Output of [`approx_convex_hull`].
#[derive(Debug, Clone, PartialEq)]
pub struct HullResult {
    /// Indices (into the input point set) of the selected boundary subset
    /// `Ŝ`, in selection order.
    pub vertices: Vec<usize>,
    /// The diameter estimate `D̂ ≤ D(S)` the tolerance was based on.
    pub diameter_estimate: f64,
    /// Number of full passes over the point set.
    pub passes: usize,
    /// True if the vertex cap stopped the loop before full coverage.
    pub truncated: bool,
}

/// Approximate convex hull of `points` with coverage parameter `theta`
/// (the paper calls it `θ`; FASTQUERY uses `θ = ε/12`).
///
/// Every input point ends up within `theta * D̂` of `conv(Ŝ)` unless
/// `truncated` is set.
///
/// Generic over [`Points`], so it runs equally over an owned
/// [`crate::points::PointSet`] and a zero-copy
/// [`crate::points::PointsView`] borrowing the caller's buffer; both
/// produce bitwise-identical hulls (same arithmetic, same scan order),
/// and so does every `opts.threads`.
///
/// # Panics
///
/// Panics if `points` is empty or `theta` is not in `(0, 1)`.
pub fn approx_convex_hull<P: Points + Sync>(
    points: &P,
    theta: f64,
    opts: ApproxChOptions,
) -> HullResult {
    assert!(!points.is_empty(), "point set must be non-empty");
    assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
    let n = points.len();
    if n == 1 {
        return HullResult {
            vertices: vec![0],
            diameter_estimate: 0.0,
            passes: 0,
            truncated: false,
        };
    }
    let threads = sweep_threads(points, opts.threads);

    // Seed with a diameter pair: both endpoints of a farthest sweep are
    // hull vertices of the sweep geometry and give the oracle a spread
    // starting simplex. They are the first two diameter sweeps' ends.
    let (diameter, [a, b]) = diameter_estimate(points, threads);
    if diameter == 0.0 {
        // All points coincide.
        return HullResult {
            vertices: vec![0],
            diameter_estimate: 0.0,
            passes: 0,
            truncated: false,
        };
    }
    let tol = theta * diameter;
    let cap = opts.max_vertices.unwrap_or(usize::MAX).max(2);

    let mut vertices: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
    let mut block = VertexBlock::pack(points, &vertices);
    let mut in_hull = vec![false; n];
    for &v in &vertices {
        in_hull[v] = true;
    }
    let mut ws = Workspace::new(points.dim());

    let mut passes = 0usize;
    let mut truncated = false;
    loop {
        passes += 1;
        let mut added_this_pass = false;
        'scan: for p_idx in 0..n {
            if in_hull[p_idx] {
                continue;
            }
            let p = points.point(p_idx);
            loop {
                match ws.test(&block, p, tol, opts.triangle) {
                    Verdict::Inside(_) | Verdict::Undecided(_) => break,
                    Verdict::Outside(_) => {
                        if vertices.len() >= cap {
                            truncated = true;
                            break 'scan;
                        }
                        // Extreme point in the witness direction `p − x`.
                        // The witness property guarantees argmax ∉ Ŝ.
                        let extreme = argmax_dot(points, &ws.dir, threads);
                        let added = if in_hull[extreme] {
                            // Numerical tie pushed us back onto an existing
                            // vertex; fall back to adding the query point
                            // itself (it is certified far from conv(Ŝ), so
                            // it is a boundary point of the current
                            // approximation's complement worth keeping).
                            if in_hull[p_idx] {
                                break;
                            }
                            p_idx
                        } else {
                            extreme
                        };
                        in_hull[added] = true;
                        vertices.push(added);
                        block.push(points.point(added));
                        added_this_pass = true;
                        // Re-test the same point against the grown hull.
                    }
                }
            }
        }
        if truncated || !added_this_pass {
            break;
        }
    }

    HullResult { vertices, diameter_estimate: diameter, passes, truncated }
}

/// The threads [`approx_convex_hull`] splits its full-`n` sweeps over
/// when asked for `requested` ([`ApproxChOptions::threads`], `0` =
/// available parallelism): one when `n·d < 2^19`, where a thread spawn
/// per sweep costs more than it saves, else the resolved request.
pub fn sweep_threads<P: Points + ?Sized>(points: &P, requested: usize) -> usize {
    if points.len().saturating_mul(points.dim()) < PARALLEL_MIN_WORK {
        1
    } else if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Convenience check used by tests and callers that want the Lemma 5.3
/// guarantee verified: is every point within `tol` of `conv(hull)`
/// according to the membership oracle?
pub fn verify_coverage<P: Points>(points: &P, hull: &[usize], tol: f64) -> bool {
    (0..points.len()).all(|i| {
        !matches!(
            membership(points, hull, points.point(i), tol, TriangleOptions::default()),
            Membership::Outside { .. }
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn square_with_interior_points() {
        let ps = PointSet::from_points(&[
            vec![0.0, 0.0],
            vec![4.0, 0.0],
            vec![4.0, 4.0],
            vec![0.0, 4.0],
            vec![2.0, 2.0],
            vec![1.0, 1.5],
            vec![3.0, 2.5],
        ]);
        let res = approx_convex_hull(&ps, 0.05, ApproxChOptions::default());
        assert!(!res.truncated);
        // All four corners must be selected; interior points must not.
        for corner in 0..4 {
            assert!(res.vertices.contains(&corner), "missing corner {corner}");
        }
        assert!(!res.vertices.contains(&4), "interior centroid selected");
        assert!(verify_coverage(&ps, &res.vertices, 0.05 * res.diameter_estimate + 1e-9));
    }

    #[test]
    fn collinear_points_need_two_vertices() {
        let ps = PointSet::from_points(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
        ]);
        let res = approx_convex_hull(&ps, 0.1, ApproxChOptions::default());
        assert!(res.vertices.contains(&0));
        assert!(res.vertices.contains(&3));
        assert!(res.vertices.len() <= 3, "collinear set should stay small: {:?}", res.vertices);
    }

    #[test]
    fn identical_points_single_vertex() {
        let ps = PointSet::from_points(&vec![vec![1.0, 2.0]; 5]);
        let res = approx_convex_hull(&ps, 0.1, ApproxChOptions::default());
        assert_eq!(res.vertices, vec![0]);
        assert_eq!(res.diameter_estimate, 0.0);
    }

    #[test]
    fn single_point() {
        let ps = PointSet::from_points(&[vec![3.0]]);
        let res = approx_convex_hull(&ps, 0.5, ApproxChOptions::default());
        assert_eq!(res.vertices, vec![0]);
    }

    #[test]
    fn coverage_on_random_cloud() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts: Vec<Vec<f64>> =
            (0..200).map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let ps = PointSet::from_points(&pts);
        let theta = 0.1;
        let res = approx_convex_hull(&ps, theta, ApproxChOptions::default());
        assert!(!res.truncated);
        assert!(
            res.vertices.len() < 60,
            "hull subset should be much smaller than n: {}",
            res.vertices.len()
        );
        assert!(verify_coverage(&ps, &res.vertices, theta * res.diameter_estimate + 1e-9));
    }

    #[test]
    fn farthest_distance_preserved_by_hull_subset() {
        // The property FASTQUERY relies on (Lemma 5.4): the max distance
        // from any query to the hull subset approximates the max distance
        // to the full set.
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Vec<f64>> =
            (0..150).map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let ps = PointSet::from_points(&pts);
        let theta = 0.02;
        let res = approx_convex_hull(&ps, theta, ApproxChOptions::default());
        for q in [0usize, 7, 93] {
            let (_, true_far) = ps.farthest_from_index(q).unwrap();
            let hull_far =
                res.vertices.iter().map(|&v| ps.dist_sq(q, v).sqrt()).fold(0.0f64, f64::max);
            assert!(hull_far <= true_far + 1e-12);
            assert!(
                hull_far >= true_far - 2.0 * theta * res.diameter_estimate,
                "query {q}: hull {hull_far} vs true {true_far}"
            );
        }
    }

    #[test]
    fn threaded_sweeps_above_the_work_floor_match_one_thread() {
        // n·d = 2^19, the floor: the sweeps split over the given threads.
        let mut rng = StdRng::seed_from_u64(23);
        let pts: Vec<Vec<f64>> =
            (0..8192).map(|_| (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let ps = PointSet::from_points(&pts);
        let opts = ApproxChOptions { max_vertices: Some(24), ..Default::default() };
        let serial = approx_convex_hull(&ps, 0.2, ApproxChOptions { threads: 1, ..opts });
        assert!(serial.vertices.len() > 2, "the witness loop must run: {serial:?}");
        for threads in [2usize, 3] {
            let res = approx_convex_hull(&ps, 0.2, ApproxChOptions { threads, ..opts });
            assert_eq!(res, serial, "threads = {threads}");
            assert_eq!(res.diameter_estimate.to_bits(), serial.diameter_estimate.to_bits());
        }
    }

    #[test]
    fn vertex_cap_truncates() {
        let mut rng = StdRng::seed_from_u64(3);
        // Points on a circle: every point is a hull vertex.
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 100.0 * std::f64::consts::TAU + rng.gen_range(0.0..1e-6);
                vec![t.cos(), t.sin()]
            })
            .collect();
        let ps = PointSet::from_points(&pts);
        let res = approx_convex_hull(
            &ps,
            0.001,
            ApproxChOptions { max_vertices: Some(10), ..Default::default() },
        );
        assert!(res.truncated);
        assert!(res.vertices.len() <= 10);
    }

    #[test]
    fn loose_theta_returns_few_vertices() {
        let mut rng = StdRng::seed_from_u64(19);
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 100.0 * std::f64::consts::TAU;
                vec![t.cos() + rng.gen_range(-1e-9..1e-9), t.sin()]
            })
            .collect();
        let ps = PointSet::from_points(&pts);
        let tight = approx_convex_hull(&ps, 0.01, ApproxChOptions::default());
        let loose = approx_convex_hull(&ps, 0.3, ApproxChOptions::default());
        assert!(
            loose.vertices.len() < tight.vertices.len(),
            "loose {} vs tight {}",
            loose.vertices.len(),
            tight.vertices.len()
        );
    }
}
