//! Flat storage for `n` points in `R^d`, and the full-`n` sweeps APPROXCH
//! runs over it.
//!
//! A sweep (the farthest point from a query, the point extreme in a
//! direction) evaluates 8 consecutive points per step with `reecc-linalg`'s
//! [`dot_lanes`] or [`dist_sq_lanes`], each point an independent lane that
//! keeps [`dot`]'s or [`dist_sq`]'s exact fold, and can split the index
//! range into contiguous chunks, one per thread, whose winners merge in
//! index order. Neither the lanes nor the chunks change a bit of the answer
//! (DESIGN §16).

use std::ops::Range;

use reecc_linalg::vector::{dist_sq, dist_sq_lanes, dot, dot_lanes, LANES};

/// Read-only access to a point-major point collection.
///
/// The hull algorithms ([`crate::approxch::approx_convex_hull`],
/// [`crate::triangle::membership`]) are generic over this trait so they
/// run equally over an owned [`PointSet`] and a zero-copy
/// [`PointsView`] borrowing someone else's buffer (the sketch's flat
/// node-major embedding store, most importantly). Every default method
/// is an in-order scan over [`Points::point`] slices, so the two
/// implementations are bitwise interchangeable.
pub trait Points {
    /// Dimension `d`.
    fn dim(&self) -> usize;

    /// Number of points.
    fn len(&self) -> usize;

    /// Borrow point `i`.
    fn point(&self, i: usize) -> &[f64];

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Squared distance between stored points `i` and `j`.
    fn dist_sq(&self, i: usize, j: usize) -> f64 {
        dist_sq(self.point(i), self.point(j))
    }

    /// Index of the stored point farthest (Euclidean) from an arbitrary
    /// query point; ties break to the smaller index. `None` if empty.
    fn farthest_from(&self, query: &[f64]) -> Option<(usize, f64)> {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        farthest_in(self, query, 0..self.len()).best.map(|(i, d2)| (i, d2.sqrt()))
    }

    /// Index of the stored point farthest from stored point `from`.
    fn farthest_from_index(&self, from: usize) -> Option<(usize, f64)> {
        self.farthest_from(self.point(from))
    }
}

/// A borrowed, zero-copy point set over someone else's flat point-major
/// buffer. Point `i` occupies `data[i*dim..(i+1)*dim]` — exactly the
/// sketch's node-major embedding layout, so the hull can be built
/// without materializing an O(n·d) copy.
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    dim: usize,
    len: usize,
    data: &'a [f64],
}

impl<'a> PointsView<'a> {
    /// Borrow a flat point-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: &'a [f64]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer length must be a multiple of dim");
        PointsView { dim, len: data.len() / dim, data }
    }
}

impl Points for PointsView<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// A set of `n` points in `R^d`, stored point-major in one flat buffer.
///
/// Point `i` occupies `data[i*dim..(i+1)*dim]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    len: usize,
    data: Vec<f64>,
}

impl Points for PointSet {
    #[inline]
    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

impl PointSet {
    /// Build from a flat point-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer length must be a multiple of dim");
        let len = data.len() / dim;
        PointSet { dim, len, data }
    }

    /// Build from per-point slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input or empty dimension.
    pub fn from_points(points: &[Vec<f64>]) -> Self {
        let dim = points.first().map_or(1, |p| p.len());
        assert!(dim > 0, "dimension must be positive");
        let mut data = Vec::with_capacity(points.len() * dim);
        for p in points {
            assert_eq!(p.len(), dim, "ragged point set");
            data.extend_from_slice(p);
        }
        PointSet { dim, len: points.len(), data }
    }

    /// Number of points (also available through [`Points::len`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimension `d` (also available through [`Points::dim`]).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i` (also available through [`Points::point`]).
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Feeds `(i, value(x_i))` to `visit` for every `i` in `range`, in index
/// order: [`LANES`] points per `lanes` call, the remainder one by one
/// through `single`, which must compute the same fold.
#[inline(always)]
fn sweep<P: Points + ?Sized>(
    points: &P,
    range: Range<usize>,
    lanes: impl Fn([&[f64]; LANES]) -> [f64; LANES],
    single: impl Fn(&[f64]) -> f64,
    mut visit: impl FnMut(usize, f64),
) {
    let mut i = range.start;
    while i + LANES <= range.end {
        let values = lanes(std::array::from_fn(|l| points.point(i + l)));
        for (l, &v) in values.iter().enumerate() {
            visit(i + l, v);
        }
        i += LANES;
    }
    for j in i..range.end {
        visit(j, single(points.point(j)));
    }
}

/// A sweep's winner over one index chunk: the `(index, value)` its rule
/// kept, and whether any value was NaN (which the chunk merges need).
#[derive(Debug, Clone, Copy)]
struct Winner {
    best: Option<(usize, f64)>,
    nan: bool,
}

/// The farthest point from `query` within `range`, by squared distance,
/// with [`Points::farthest_from`]'s rule: a later point replaces the
/// running best unless `d2 <= best`, so the first maximum wins.
fn farthest_in<P: Points + ?Sized>(points: &P, query: &[f64], range: Range<usize>) -> Winner {
    let mut w = Winner { best: None, nan: false };
    sweep(
        points,
        range,
        |rows| dist_sq_lanes(rows, query),
        |x| dist_sq(x, query),
        |i, d2| {
            w.nan |= d2.is_nan();
            match w.best {
                Some((_, bd)) if d2 <= bd => {}
                _ => w.best = Some((i, d2)),
            }
        },
    );
    w
}

/// [`farthest_in`] over every point, split over `threads` chunks:
/// `(index, squared distance)`, `None` if empty.
///
/// Chunk winners merge in index order under the same `d2 <= best` rule,
/// except that a chunk which met a NaN always wins: the serial scan takes
/// the NaN and from then on runs exactly as the chunk's own scan did,
/// whatever it held before.
fn farthest<P: Points + Sync + ?Sized>(
    points: &P,
    query: &[f64],
    threads: usize,
) -> Option<(usize, f64)> {
    let mut best = None;
    for w in in_chunks(points.len(), threads, |r| farthest_in(points, query, r)) {
        if let Some((i, d2)) = w.best {
            match best {
                Some((_, bd)) if !w.nan && d2 <= bd => {}
                _ => best = Some((i, d2)),
            }
        }
    }
    best
}

/// The point extreme in direction `dir`: `argmax_i dot(dir, x_i)`,
/// exactly the index `(0..n).max_by` returned on `dot(dir, x_i)`
/// comparisons. `max_by` keeps the last of equal maxima, so a later point
/// replaces the running best unless it is strictly smaller; the chunks of
/// a threaded sweep merge in index order under the same rule.
///
/// # Panics
///
/// Panics with `"finite coordinates"` if a dot product is NaN and there
/// are at least two points (`max_by`'s comparison would have failed), and
/// if `points` is empty.
pub(crate) fn argmax_dot<P: Points + Sync + ?Sized>(
    points: &P,
    dir: &[f64],
    threads: usize,
) -> usize {
    let winners = in_chunks(points.len(), threads, |range| {
        let mut w = Winner { best: None, nan: false };
        sweep(
            points,
            range,
            |rows| dot_lanes(dir, rows),
            |x| dot(dir, x),
            |i, v| {
                w.nan |= v.is_nan();
                match w.best {
                    Some((_, bv)) if v < bv => {}
                    _ => w.best = Some((i, v)),
                }
            },
        );
        w
    });
    let nan = winners.iter().any(|w| w.nan);
    assert!(!nan || points.len() < 2, "finite coordinates");
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in winners.into_iter().filter_map(|w| w.best) {
        match best {
            Some((_, bv)) if v < bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.expect("non-empty").0
}

/// Runs `scan` over up to `threads` contiguous chunks of `0..n` (the
/// first on the calling thread, the rest on scoped threads) and returns
/// the chunk results in index order. A chunk holds at least one group of
/// [`LANES`] points, so a thread count far above `n` cannot start a thread
/// per point; one thread, or at most [`LANES`] points, scans `0..n` in one
/// piece.
fn in_chunks<R: Send>(
    n: usize,
    threads: usize,
    scan: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let chunk = n.div_ceil(threads.max(1)).max(LANES);
    if chunk >= n {
        return vec![scan(0..n)];
    }
    let scan = &scan;
    std::thread::scope(|s| {
        let rest: Vec<_> = (chunk..n)
            .step_by(chunk)
            .map(|lo| s.spawn(move || scan(lo..n.min(lo + chunk))))
            .collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(scan(0..chunk));
        for handle in rest {
            out.push(handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Farthest-point sweeps behind [`diameter_estimate`].
const DIAMETER_SWEEPS: usize = 4;

/// Lower bound on the diameter `D(S)` from up to [`DIAMETER_SWEEPS`]
/// farthest-point sweeps, the first from point 0 and each later one from
/// the previous sweep's endpoint, stopping once a sweep does not lengthen
/// the distance (at least `D/2` in any metric space, and typically much
/// tighter). Also returns the endpoints of the first two sweeps — the
/// point farthest from point 0 and the point farthest from that — which
/// seed APPROXCH; the second is only meaningful when the estimate is
/// positive.
pub(crate) fn diameter_estimate<P: Points + Sync + ?Sized>(
    points: &P,
    threads: usize,
) -> (f64, [usize; 2]) {
    let mut ends = [0usize; 2];
    if points.len() < 2 {
        return (0.0, ends);
    }
    let (mut a, mut best) = (0usize, 0.0f64);
    for sweep in 0..DIAMETER_SWEEPS {
        let (b, d2) = farthest(points, points.point(a), threads).expect("non-empty");
        if let Some(end) = ends.get_mut(sweep) {
            *end = b;
        }
        let d = d2.sqrt();
        if d <= best {
            break;
        }
        best = d;
        a = b;
    }
    (best, ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> PointSet {
        PointSet::from_points(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
        ])
    }

    #[test]
    fn from_flat_roundtrip() {
        let ps = PointSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.dim(), 2);
        assert_eq!(ps.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn distances() {
        let ps = unit_square();
        assert!((ps.dist_sq(0, 2) - 2.0).abs() < 1e-15);
        assert!((ps.dist_sq(0, 4) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn farthest_queries() {
        let ps = unit_square();
        let (idx, d) = ps.farthest_from(&[0.0, 0.0]).unwrap();
        assert_eq!(idx, 2);
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        let (idx2, _) = ps.farthest_from_index(1).unwrap();
        assert_eq!(idx2, 3);
    }

    #[test]
    fn diameter_estimate_square() {
        let ps = unit_square();
        let (d, ends) = diameter_estimate(&ps, 1);
        assert!((d - 2.0f64.sqrt()).abs() < 1e-12);
        // Corner 2 is farthest from corner 0, and corner 0 from corner 2.
        assert_eq!(ends, [2, 0]);
    }

    #[test]
    fn diameter_of_single_point_is_zero() {
        let ps = PointSet::from_points(&[vec![1.0, 1.0]]);
        assert_eq!(diameter_estimate(&ps, 1).0, 0.0);
    }

    /// Seeded coordinates in `[-1, 1)` with a sprinkling of exact zeros of
    /// both signs.
    fn coords(len: usize, seed: u64) -> Vec<f64> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match i % 11 {
                3 => 0.0,
                7 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect()
    }

    /// The sweeps against plain serial scans over `dot` and `dist_sq`, on
    /// point counts that leave a remainder past the last group of lanes.
    #[test]
    fn sweeps_match_serial_scans_at_every_chunking() {
        for (n, d) in [(1usize, 3usize), (7, 2), (20, 7), (37, 64), (64, 1)] {
            let ps = PointSet::from_flat(d, coords(n * d, n as u64));
            let q = coords(d, 7);
            let serial_far = (0..n)
                .fold(None, |best: Option<(usize, f64)>, i| {
                    let d2 = dist_sq(ps.point(i), &q);
                    match best {
                        Some((_, bd)) if d2 <= bd => best,
                        _ => Some((i, d2)),
                    }
                })
                .unwrap();
            let serial_max = (0..n)
                .max_by(|&i, &j| {
                    dot(&q, ps.point(i)).partial_cmp(&dot(&q, ps.point(j))).unwrap()
                })
                .unwrap();
            for threads in [1usize, 2, 3, 5] {
                let (i, d2) = farthest(&ps, &q, threads).unwrap();
                assert_eq!((i, d2.to_bits()), (serial_far.0, serial_far.1.to_bits()));
                assert_eq!(argmax_dot(&ps, &q, threads), serial_max, "n={n} threads={threads}");
            }
        }
    }

    /// Exact ties placed at every pair of positions, across the lane
    /// groups and the chunk boundaries of 1, 2 and 3 threads: the argmax
    /// keeps the last maximum (`max_by`), the farthest sweep the first.
    #[test]
    fn sweep_ties_hold_across_chunks() {
        let n = 20;
        for i in 0..n {
            for j in i + 1..n {
                let mut xs: Vec<f64> = (0..n).map(|k| (k % 5) as f64 * 0.25 - 0.5).collect();
                xs[i] = 3.0;
                xs[j] = 3.0;
                let ps = PointSet::from_flat(1, xs);
                for threads in [1usize, 2, 3] {
                    assert_eq!(argmax_dot(&ps, &[1.0], threads), j, "{i},{j} t={threads}");
                    let (far, _) = farthest(&ps, &[-1.0], threads).unwrap();
                    assert_eq!(far, i, "{i},{j} t={threads}");
                }
            }
        }
    }

    /// A NaN distance makes the serial scan take it and then whatever
    /// follows; the chunk merge must land on the same point.
    #[test]
    fn farthest_merge_matches_serial_scan_around_nan() {
        let n = 21;
        for at in 0..n {
            let mut xs: Vec<f64> = (0..n).map(|k| ((k * 7) % 9) as f64).collect();
            xs[at] = f64::NAN;
            let ps = PointSet::from_flat(1, xs);
            let serial = farthest_in(&ps, &[0.0], 0..n).best.unwrap();
            for threads in [2usize, 3, 4] {
                let got = farthest(&ps, &[0.0], threads).unwrap();
                assert_eq!((got.0, got.1.to_bits()), (serial.0, serial.1.to_bits()), "at={at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn argmax_panics_on_nan_on_one_thread() {
        let mut xs = vec![1.0; 20];
        xs[11] = f64::NAN;
        argmax_dot(&PointSet::from_flat(1, xs), &[1.0], 1);
    }

    #[test]
    #[should_panic(expected = "finite coordinates")]
    fn argmax_panics_on_nan_in_a_worker_chunk() {
        let mut xs = vec![1.0; 20];
        xs[17] = f64::NAN;
        argmax_dot(&PointSet::from_flat(1, xs), &[1.0], 3);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_points_rejected() {
        let _ = PointSet::from_points(&[vec![0.0, 1.0], vec![2.0]]);
    }
}
