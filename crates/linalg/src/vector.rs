//! Dense vector kernels used throughout the numerical code.
//!
//! All functions operate on `&[f64]` slices; panics on length mismatch are
//! debug-asserted on the hot paths and hard-asserted on the public entry
//! points that are not performance critical.

/// Dot product `a · b`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `||a||_2`.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm `||a||_2^2`.
#[inline]
pub fn norm2_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// How many columns [`column_norms_sq`] advances together: each column is
/// one independent accumulator chain.
pub const NORM_LANES: usize = 8;

/// Squared norms `out[k] = ‖x_k‖²` of `out.len()` consecutive length-`d`
/// vectors packed in `xs` (node-major sketch columns).
///
/// A lone `dot(x, x)` is one dependent chain of `d` adds, so it runs at
/// the add latency. Here [`NORM_LANES`] columns run side by side as
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
    let full = out.len() / NORM_LANES * NORM_LANES;
    for (group, norms) in
        xs[..full * d].chunks_exact(NORM_LANES * d).zip(out.chunks_exact_mut(NORM_LANES))
    {
        let cols: [&[f64]; NORM_LANES] = std::array::from_fn(|b| &group[b * d..(b + 1) * d]);
        // `Iterator::sum`'s starting value, so each lane is `dot`'s fold.
        let mut acc = [-0.0f64; NORM_LANES];
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
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (classic CG direction update).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
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

/// Mean of the entries.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Subtract the mean from every entry, projecting onto `1⊥`.
///
/// This is how the Laplacian's null space is handled: both right-hand sides
/// and iterates are kept orthogonal to the all-ones vector.
#[inline]
pub fn project_out_ones(a: &mut [f64]) {
    let m = mean(a);
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

// ---------------------------------------------------------------------------
// f32 kernels for the mixed-precision inner solver.
//
// Storage and elementwise arithmetic are f32 (half the memory traffic,
// double the SIMD lanes); reductions promote every product to f64 before
// accumulating so the CG scalars (α, β, residual norms) keep f64-grade
// conditioning — the standard mixed-precision recipe. Summation order
// matches the f64 kernels so each column's float sequence is a pure
// function of its own data.
// ---------------------------------------------------------------------------

/// Dot product of two f32 vectors, accumulated in f64.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_f32: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Euclidean norm of an f32 vector, accumulated in f64.
#[inline]
pub fn norm2_f32(a: &[f32]) -> f64 {
    dot_f32(a, a).sqrt()
}

/// `y += alpha * x` in f32.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_f32: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` in f32.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn xpby_f32(x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "xpby_f32: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Subtract the mean (accumulated in f64, applied in f32) from every
/// entry — the f32 null-space projection.
#[inline]
pub fn project_out_ones_f32(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let m = (a.iter().map(|&x| x as f64).sum::<f64>() / a.len() as f64) as f32;
    for x in a.iter_mut() {
        *x -= m;
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
        let count = 2 * NORM_LANES + 3;
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
        assert!(empty.iter().all(|&x| x.to_bits() == dot(&[], &[]).to_bits()));
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
        assert_eq!(mean(&[]), 0.0);
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
