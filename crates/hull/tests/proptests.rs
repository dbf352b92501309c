//! Property-based tests for the convex-hull machinery, including a
//! cross-check of APPROXCH against the exact 2-D hull oracle.

use proptest::prelude::*;
use reecc_hull::approxch::{approx_convex_hull, verify_coverage, ApproxChOptions};
use reecc_hull::exact2d::convex_hull_2d;
use reecc_hull::triangle::{membership, Membership, TriangleOptions};
use reecc_hull::{PointSet, Points};
use reecc_linalg::vector::dist_sq;

fn points_2d() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 2), 3..50)
}

fn points_nd(d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, d), 3..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In 2-D, the approximate hull's vertices are a subset of the exact
    /// hull's vertex set (up to coincident points), and the approximate
    /// hull still covers everything.
    #[test]
    fn approx_hull_vertices_lie_on_exact_hull_2d(pts in points_2d()) {
        let ps = PointSet::from_points(&pts);
        let exact: Vec<usize> = convex_hull_2d(&ps);
        prop_assume!(exact.len() >= 3); // skip degenerate collinear clouds
        let theta = 0.01;
        let res = approx_convex_hull(&ps, theta, ApproxChOptions::default());
        prop_assert!(!res.truncated);
        // Every selected vertex must geometrically coincide with some
        // exact hull vertex (ids can differ under coincident points).
        for &v in &res.vertices {
            let pv = ps.point(v);
            let on_exact = exact.iter().any(|&e| {
                let pe = ps.point(e);
                dist_sq(pv, pe) < 1e-18
            });
            prop_assert!(on_exact, "approx vertex {} is not an exact hull vertex", v);
        }
        prop_assert!(verify_coverage(&ps, &res.vertices, theta * res.diameter_estimate + 1e-9));
    }

    /// The farthest-point guarantee (Lemma 5.4's engine): for any query
    /// point in the set, the farthest point among the hull subset is
    /// within 2 theta D of the true farthest distance.
    #[test]
    fn farthest_distances_preserved(pts in points_nd(4), theta in 0.02f64..0.2) {
        let ps = PointSet::from_points(&pts);
        let res = approx_convex_hull(&ps, theta, ApproxChOptions::default());
        prop_assume!(!res.truncated);
        let slack = 2.0 * theta * res.diameter_estimate + 1e-9;
        for q in 0..ps.len() {
            let (_, true_far) = ps.farthest_from_index(q).unwrap();
            let hull_far = res
                .vertices
                .iter()
                .map(|&v| ps.dist_sq(q, v).sqrt())
                .fold(0.0f64, f64::max);
            prop_assert!(hull_far <= true_far + 1e-9);
            prop_assert!(
                hull_far >= true_far - slack,
                "query {}: {} vs {} (slack {})", q, hull_far, true_far, slack
            );
        }
    }

    /// Triangle-Algorithm soundness: an Outside verdict's witness really
    /// satisfies the separation property; an Inside verdict's gap really
    /// is within tolerance.
    #[test]
    fn membership_verdicts_are_sound(
        pts in points_nd(3),
        qx in -15.0f64..15.0,
        qy in -15.0f64..15.0,
        qz in -15.0f64..15.0,
        tol in 0.01f64..1.0
    ) {
        let ps = PointSet::from_points(&pts);
        let hull: Vec<usize> = (0..ps.len()).collect();
        let q = [qx, qy, qz];
        match membership(&ps, &hull, &q, tol, TriangleOptions::default()) {
            Membership::Inside { gap } => prop_assert!(gap <= tol + 1e-12),
            Membership::Outside { witness, gap } => {
                prop_assert!(gap > 0.0);
                for &v in &hull {
                    let dxv = dist_sq(&witness, ps.point(v));
                    let dqv = dist_sq(&q, ps.point(v));
                    prop_assert!(dxv < dqv + 1e-9, "witness condition violated");
                }
            }
            Membership::Undecided { .. } => {} // permitted, rare
        }
    }

    /// Convex combinations of the points are never reported Outside.
    #[test]
    fn convex_combinations_are_inside(
        pts in points_nd(3),
        w1 in 0.0f64..1.0,
        w2 in 0.0f64..1.0
    ) {
        let ps = PointSet::from_points(&pts);
        let hull: Vec<usize> = (0..ps.len()).collect();
        // q = w1*p0 + (1-w1)*(w2*p1 + (1-w2)*p2): a convex combination.
        let (a, b, c) = (ps.point(0), ps.point(1), ps.point(2));
        let q: Vec<f64> = (0..3)
            .map(|i| w1 * a[i] + (1.0 - w1) * (w2 * b[i] + (1.0 - w2) * c[i]))
            .collect();
        let m = membership(&ps, &hull, &q, 1e-3, TriangleOptions::default());
        prop_assert!(
            !matches!(m, Membership::Outside { .. }),
            "convex combination flagged outside: {:?}", m
        );
    }
}
