//! Golden hull bits: APPROXCH's full `HullResult` (vertex list, diameter
//! estimate bits, passes, truncation) on two fixed inputs, checked against
//! text files in `golden/` that were written by the serial scan before
//! the lane kernels and the threaded sweeps existed.
//!
//! Both inputs sit below APPROXCH's 2^19 work floor (`n·d` per sweep), so
//! the 1/2/4-thread loop below runs every sweep on the calling thread.
//! The threaded sweeps are covered by `approxch`'s unit test
//! `threaded_sweeps_above_the_work_floor_match_one_thread`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reecc_core::query::default_hull_budget;
use reecc_core::{ResistanceSketch, SketchParams};
use reecc_graph::generators::{holme_kim, with_pendant_periphery};
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions, HullResult};
use reecc_hull::PointSet;

/// The golden text form of a hull: one `key value` pair per line.
fn render(res: &HullResult) -> String {
    let vertices: Vec<String> = res.vertices.iter().map(|v| v.to_string()).collect();
    format!(
        "vertices {}\ndiameter_bits {:#018x}\npasses {}\ntruncated {}\n",
        vertices.join(" "),
        res.diameter_estimate.to_bits(),
        res.passes,
        res.truncated
    )
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    std::fs::read_to_string(path).expect("golden hull is checked in")
}

/// Case 1, a sketch-shaped input: FASTQUERY's hull (θ = ε/12, the default
/// budget) over the sketch of a 1 500-node Holme–Kim graph with a pendant
/// periphery, ε = 0.5, 64 rows, seed 801. n·d = 96 000, below the 2^19
/// floor; the budget truncates the hull in its first pass.
fn sketch_case() -> (ResistanceSketch, f64, ApproxChOptions) {
    let g = with_pendant_periphery(&holme_kim(1275, 5, 0.6, 801), 225, 3, 802);
    let params =
        SketchParams { epsilon: 0.5, max_dimension: Some(64), seed: 801, ..Default::default() };
    let sketch = ResistanceSketch::build(&g, &params).unwrap();
    let theta = (params.epsilon / 12.0).clamp(1e-6, 0.999);
    let opts = ApproxChOptions {
        max_vertices: Some(default_hull_budget(g.node_count())),
        ..ApproxChOptions::default()
    };
    (sketch, theta, opts)
}

/// Case 2, an unbudgeted cloud: 8 192 points uniform in `[-1, 1)^8` from
/// `StdRng` seed 7 (coordinates drawn point by point), θ = 0.3. It takes
/// three passes; n·d = 2^16, below the 2^19 floor.
fn cloud_case() -> PointSet {
    let mut rng = StdRng::seed_from_u64(7);
    let pts: Vec<Vec<f64>> =
        (0..8192).map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    PointSet::from_points(&pts)
}

#[test]
fn hull_bits_match_the_serial_golden_at_every_thread_count() {
    // Generation recipe (recorded so the golden files can be
    // regenerated): `render` of `approx_convex_hull` on `sketch_case()`
    // (`hull_sketch.txt`) and on `cloud_case()` at θ = 0.3 with the
    // default options (`hull_cloud.txt`), as the serial scan built them:
    // two `dot`s per argmax comparison, a `min_by` start search, six
    // farthest-point sweeps. Only a change meant to move the hull may
    // rewrite them, from the `left` side of a failure.
    let (sketch, theta, opts) = sketch_case();
    let cloud = cloud_case();
    let (sketch_golden, cloud_golden) = (golden("hull_sketch.txt"), golden("hull_cloud.txt"));
    for threads in [1usize, 2, 4] {
        let res = approx_convex_hull(
            &sketch.point_view(),
            theta,
            ApproxChOptions { threads, ..opts },
        );
        assert_eq!(render(&res), sketch_golden, "sketch case, threads = {threads}");
        let res =
            approx_convex_hull(&cloud, 0.3, ApproxChOptions { threads, ..Default::default() });
        assert_eq!(render(&res), cloud_golden, "cloud case, threads = {threads}");
    }
}
