//! Dense vector kernels used throughout the numerical code.
//!
//! The CG kernels ([`dot`], [`norm2`], [`axpy`], [`xpby`], [`mean`],
//! [`project_out_ones`]) are written once over [`Scalar`] and
//! monomorphized for `f64` and for the `f32` storage of the
//! mixed-precision inner solve. Reductions widen every element to `f64`
//! before they accumulate, so the CG scalars (α, β, residual norms) keep
//! `f64`-grade conditioning in both precisions, and the summation order
//! is the same in both. The remaining kernels are `f64` only. Panics on
//! length mismatch are hard-asserted.
//!
//! The lane kernels ([`column_norms_sq`], [`dot_lanes`], [`dist_sq_lanes`])
//! compute [`LANES`] results at once, each lane `to_bits`-equal to the
//! one-chain kernel it stands for.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// The element type of a solver vector: `f64`, or `f32` for the
/// mixed-precision inner solve.
///
/// Coefficients are computed in `f64` and rounded once by
/// [`Scalar::from_f64`]; reductions widen with [`Scalar::to_f64`]. Both
/// are the identity for `f64`, so the `f64` instantiation of a kernel is
/// exactly the plain `f64` arithmetic.
pub trait Scalar:
    Copy
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// `0.0`.
    const ZERO: Self;
    /// Round an `f64` to this type (`x as Self`).
    fn from_f64(x: f64) -> Self;
    /// Widen to `f64` (exact).
    fn to_f64(self) -> f64;
    /// A count, such as a node degree, as this type (`k as Self`).
    fn from_count(k: usize) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn from_count(k: usize) -> Self {
                k as $t
            }
        }
    };
}

impl_scalar!(f64);
impl_scalar!(f32);

/// Dot product `a · b`, accumulated in `f64`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x.to_f64() * y.to_f64()).sum()
}

/// Euclidean norm `||a||_2`, accumulated in `f64`.
#[inline]
pub fn norm2<T: Scalar>(a: &[T]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm `||a||_2^2`.
#[inline]
pub fn norm2_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// How many vectors a lane kernel advances together: each is one
/// independent accumulator chain.
pub const LANES: usize = 8;

/// Squared norms `out[k] = ‖x_k‖²` of `out.len()` consecutive length-`d`
/// vectors packed in `xs` (node-major sketch columns).
///
/// A lone `dot(x, x)` is one dependent chain of `d` adds, so it runs at
/// the add latency. Here [`LANES`] columns run side by side as
/// independent lanes. Each lane keeps `dot`'s in-order chain, so every
/// result is `to_bits`-equal to [`norm2_sq`] of its column. The columns
/// past the last full group of lanes take [`norm2_sq`] itself.
///
/// # Panics
///
/// Panics if `xs.len() != out.len() · d`.
pub fn column_norms_sq(xs: &[f64], d: usize, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len() * d, "column_norms_sq: length mismatch");
    if d == 0 {
        out.fill(norm2_sq(&[]));
        return;
    }
    let full = out.len() / LANES * LANES;
    for (group, norms) in
        xs[..full * d].chunks_exact(LANES * d).zip(out.chunks_exact_mut(LANES))
    {
        let cols: [&[f64]; LANES] = std::array::from_fn(|b| &group[b * d..(b + 1) * d]);
        // `Iterator::sum`'s starting value, so each lane is `dot`'s fold.
        let mut acc = [-0.0f64; LANES];
        for t in 0..d {
            for (a, col) in acc.iter_mut().zip(&cols) {
                let x = col[t];
                *a += x * x;
            }
        }
        norms.copy_from_slice(&acc);
    }
    for (k, o) in out.iter_mut().enumerate().skip(full) {
        *o = norm2_sq(&xs[k * d..(k + 1) * d]);
    }
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (classic CG direction update).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xpby<T: Scalar>(x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Scale in place: `a *= alpha`.
#[inline]
pub fn scale(a: &mut [f64], alpha: f64) {
    for x in a {
        *x *= alpha;
    }
}

/// Mean of the entries, accumulated in `f64`.
#[inline]
pub fn mean<T: Scalar>(a: &[T]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().map(|&x| x.to_f64()).sum::<f64>() / a.len() as f64
    }
}

/// Subtract the mean (rounded once to `T`) from every entry, projecting
/// onto `1⊥`.
///
/// This is how the Laplacian's null space is handled: both right-hand sides
/// and iterates are kept orthogonal to the all-ones vector.
#[inline]
pub fn project_out_ones<T: Scalar>(a: &mut [T]) {
    let m = T::from_f64(mean(a));
    for x in a.iter_mut() {
        *x -= m;
    }
}

/// Squared Euclidean distance between two vectors.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two vectors.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// `dot(a, rows[l])` for [`LANES`] rows at once. Each lane is [`dot`]'s
/// fold: it starts at `-0.0` (`Iterator::sum`'s starting value), takes
/// the elements in order, and multiplies then adds without fusing, so it
/// is `to_bits`-equal to `dot(a, rows[l])`. The lanes only break one
/// dependent chain of `d` adds into [`LANES`] independent ones.
///
/// # Panics
///
/// Panics if a row's length differs from `a`'s.
#[inline]
pub fn dot_lanes(a: &[f64], rows: [&[f64]; LANES]) -> [f64; LANES] {
    assert!(rows.iter().all(|r| r.len() == a.len()), "dot_lanes: length mismatch");
    let mut acc = [-0.0f64; LANES];
    for_each_column(a, rows, |x, column| {
        for (s, v) in acc.iter_mut().zip(column) {
            *s += x * v;
        }
    });
    acc
}

/// `dist_sq(rows[l], b)` for [`LANES`] rows at once, each lane
/// [`dist_sq`]'s fold (see [`dot_lanes`]). IEEE subtraction negates
/// exactly, so each lane is also `to_bits`-equal to `dist_sq(b, rows[l])`
/// unless it is NaN.
///
/// # Panics
///
/// Panics if a row's length differs from `b`'s.
#[inline]
pub fn dist_sq_lanes(rows: [&[f64]; LANES], b: &[f64]) -> [f64; LANES] {
    assert!(rows.iter().all(|r| r.len() == b.len()), "dist_sq_lanes: length mismatch");
    let mut acc = [-0.0f64; LANES];
    for_each_column(b, rows, |y, column| {
        for (s, v) in acc.iter_mut().zip(column) {
            let diff = v - y;
            *s += diff * diff;
        }
    });
    acc
}

/// Calls `f(a[t], [rows[0][t], …, rows[7][t]])` for `t` in order. One
/// iterator per row keeps each row's cursor in a register, which the
/// compiler does not manage for eight indexed slices; cutting every row
/// to `a.len()` gives the nine iterators one trip count.
#[inline(always)]
fn for_each_column(a: &[f64], rows: [&[f64]; LANES], mut f: impl FnMut(f64, [f64; LANES])) {
    let [r0, r1, r2, r3, r4, r5, r6, r7] = rows.map(|r| &r[..a.len()]);
    let columns = a.iter().zip(r0).zip(r1).zip(r2).zip(r3).zip(r4).zip(r5).zip(r6).zip(r7);
    for ((((((((&x, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in columns {
        f(x, [v0, v1, v2, v3, v4, v5, v6, v7]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, -5.0, 6.0];
        assert_eq!(dot(&a, &b), 4.0 - 10.0 + 18.0);
        assert_eq!(norm2_sq(&a), 14.0);
        assert!((norm2(&a) - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn column_norms_match_dot_bitwise_with_a_nan_column() {
        // 19 columns: two full lane groups plus a 3-column tail. Values
        // of mixed sign and magnitude so rounding differs between orders.
        let count = 2 * LANES + 3;
        for d in [1usize, 2, 7, 64] {
            let mut xs: Vec<f64> = (0..count * d)
                .map(|i| {
                    let t = i as f64;
                    (t * 0.618_033_988_749).sin() * 10f64.powi((i % 7) as i32 - 3)
                })
                .collect();
            let nan_col = 5;
            xs[nan_col * d + d / 2] = f64::NAN;
            let mut out = vec![0.0; count];
            column_norms_sq(&xs, d, &mut out);
            for (k, &got) in out.iter().enumerate() {
                let x = &xs[k * d..(k + 1) * d];
                if k == nan_col {
                    assert!(got.is_nan(), "d={d}: the NaN column came out {got}");
                } else {
                    assert_eq!(got.to_bits(), dot(x, x).to_bits(), "d={d} k={k}");
                }
            }
        }
        let mut empty = [1.0; 3];
        column_norms_sq(&[], 0, &mut empty);
        assert!(empty.iter().all(|&x| x.to_bits() == dot::<f64>(&[], &[]).to_bits()));
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

    #[test]
    fn lane_kernels_match_dot_and_dist_sq_bitwise() {
        for d in [1usize, 2, 7, 64, 13] {
            let a = coords(d, d as u64);
            let flat = coords(LANES * d, 100 + d as u64);
            let rows: [&[f64]; LANES] = std::array::from_fn(|l| &flat[l * d..(l + 1) * d]);
            let dots = dot_lanes(&a, rows);
            let dists = dist_sq_lanes(rows, &a);
            for l in 0..LANES {
                assert_eq!(dots[l].to_bits(), dot(&a, rows[l]).to_bits(), "dot d={d} l={l}");
                assert_eq!(
                    dists[l].to_bits(),
                    dist_sq(rows[l], &a).to_bits(),
                    "dist_sq d={d} l={l}"
                );
            }
        }
    }

    #[test]
    fn lane_kernels_keep_negative_zero() {
        // Every product is -0.0: `dot`'s fold from -0.0 gives -0.0, and so
        // must each lane (a fold from +0.0 would give +0.0).
        for d in [1usize, 2, 7, 64] {
            let a: Vec<f64> = (0..d).map(|t| if t % 2 == 0 { 1.0 } else { -2.0 }).collect();
            let row: Vec<f64> = (0..d).map(|t| if t % 2 == 0 { -0.0 } else { 0.0 }).collect();
            let expect = dot(&a, &row);
            assert!(expect == 0.0 && expect.is_sign_negative());
            for v in dot_lanes(&a, [row.as_slice(); LANES]) {
                assert_eq!(v.to_bits(), expect.to_bits(), "d={d}");
            }
        }
    }

    /// `dist_sq_lanes` computes `row − b`; a caller after `dist_sq(b, row)`
    /// gets the same bits, since `x − y` and `y − x` round to values of
    /// opposite sign and equal magnitude, and squaring drops the sign.
    /// Pinned on exact ties of both signed zeros, equal rows, and a NaN in
    /// a row or in `b`, which must come out NaN in every order.
    #[test]
    fn dist_sq_lanes_match_both_operand_orders() {
        for d in [1usize, 3, 13] {
            let b = coords(d, 500 + d as u64);
            let mut flat = coords(LANES * d, 600 + d as u64);
            flat[..d].copy_from_slice(&b);
            flat[d..2 * d].iter_mut().zip(&b).for_each(|(x, &y)| *x = -y);
            flat[2 * d..3 * d]
                .iter_mut()
                .zip(&b)
                .for_each(|(x, &y)| *x = if y == 0.0 { -y } else { y });
            flat[4 * d + d / 2] = f64::NAN;
            for nan_in_b in [false, true] {
                let mut b = b.clone();
                if nan_in_b {
                    b[d - 1] = f64::NAN;
                }
                let rows: [&[f64]; LANES] = std::array::from_fn(|l| &flat[l * d..(l + 1) * d]);
                for (l, got) in dist_sq_lanes(rows, &b).into_iter().enumerate() {
                    for want in [dist_sq(rows[l], &b), dist_sq(&b, rows[l])] {
                        if want.is_nan() {
                            assert!(got.is_nan(), "d={d} l={l}: {got} for a NaN distance");
                        } else {
                            assert_eq!(got.to_bits(), want.to_bits(), "d={d} l={l}");
                        }
                    }
                    assert_eq!(got.is_nan(), nan_in_b || l == 4, "d={d} l={l}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn lane_kernels_reject_a_short_row() {
        let (a, short) = ([1.0, 2.0], [1.0]);
        let mut rows = [&a[..]; LANES];
        rows[5] = &short;
        let _ = dist_sq_lanes(rows, &a);
    }

    #[test]
    fn axpy_updates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
    }

    #[test]
    fn xpby_updates() {
        let x = [1.0, 1.0];
        let mut y = [2.0, 4.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [2.0, 3.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut a = [1.0, -2.0];
        scale(&mut a, 3.0);
        assert_eq!(a, [3.0, -6.0]);
    }

    #[test]
    fn projection_removes_mean() {
        let mut a = [1.0, 2.0, 3.0, 6.0];
        project_out_ones(&mut a);
        assert!(mean(&a).abs() < 1e-15);
        assert_eq!(a, [-2.0, -1.0, 0.0, 3.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean::<f64>(&[]), 0.0);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(dist_sq(&a, &b), 25.0);
        assert_eq!(dist(&a, &b), 5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
