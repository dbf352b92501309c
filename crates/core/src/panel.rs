//! The hull panel: contiguous read-path kernels for FASTQUERY.
//!
//! [`crate::sketch::ResistanceSketch::eccentricity_over`] answers a
//! hull-restricted eccentricity by gathering `data[j*d..]` for each hull
//! vertex `j` — a random-stride walk over the full `n·d` embedding
//! buffer, re-faulting the same cache lines on every query. A
//! [`HullPanel`] packs the `h` boundary embeddings into one hull-major
//! `h×d` block at engine-construction time, so every query becomes a
//! stride-1 sweep over `h·d` contiguous doubles that stay resident
//! across queries.
//!
//! One kernel reads the panel: [`HullPanel::sweep_chunk`] walks it
//! **once** for a block of up to [`MAX_LANES`] sources (monomorphized
//! lane widths, the `sweep_const` idiom from the linalg crate), so the
//! `h×d` block is read once per B queries instead of once per query. A
//! single query is a block of one. Each lane keeps its own in-order
//! accumulator — the op sequence of [`vector::dist_sq`] — and its own
//! first-strict-maximum state, which keeps every answer bitwise
//! identical to `eccentricity_over(s, hull)` regardless of batch size or
//! lane packing.
//!
//! The panel also carries the per-node squared norms and, built from
//! them, the node order for the **norm-pruned full scan**
//! ([`HullPanel::eccentricity_pruned`]): node ids sorted by descending
//! `‖x_u‖`. The sketch's centroid is the origin, so
//! `‖x_s − x_t‖ ≤ ‖x_s‖ + ‖x_t‖` is a tight bound, and a scan in that
//! order can stop once the bound falls below the best distance found —
//! the exact APPROXQUERY answer from a few percent of the nodes.

use reecc_linalg::vector;

use crate::sketch::ResistanceSketch;

/// Widest batching lane: blocks of up to 16 sources share one panel
/// sweep. 16 f64 accumulators plus two stream pointers fit comfortably
/// in registers/L1 on every target this crate cares about.
pub const MAX_LANES: usize = 16;

/// A contiguous, hull-major copy of the hull boundary's embeddings — the
/// read-path kernel block built once per [`crate::QueryEngine`] (and
/// therefore rebuilt on every serve-side epoch swap, mutation, or
/// snapshot restore). Mutations hand over the norms their rank-1 pass
/// took (`with_norms`); every other engine takes them in
/// [`Self::build`].
///
/// Also carries the per-node squared norms `‖x_u‖²` for **all** `n`
/// nodes: the what-if warm path reuses them to fill its base-distance
/// buffer by norms decomposition instead of recomputing every
/// `‖x_s − x_u‖²` from scratch, and the norm-pruned scan visits nodes in
/// the descending-norm order built from them.
#[derive(Debug, Clone)]
pub struct HullPanel {
    /// Hull vertex ids, in the hull's selection order (the candidate
    /// order of `eccentricity_over`, which the tie rule depends on).
    nodes: Vec<usize>,
    /// `h×d` hull-major embeddings: row `k` is the embedding of
    /// `nodes[k]`.
    data: Vec<f64>,
    /// `‖x_u‖²` for every node `u` (what-if warm path + pruned scan).
    node_norms: Vec<f64>,
    /// Every node id, sorted by descending `√‖x_u‖²`, ties by ascending
    /// id (the pruned scan's visiting order).
    by_norm: Vec<u32>,
    /// `√‖x_u‖²` of `by_norm[k]`, so the scan reads its bounds in order.
    by_norm_roots: Vec<f64>,
    /// Embedding dimension `d`.
    d: usize,
}

/// One norm-pruned scan ([`HullPanel::eccentricity_pruned`]): the
/// APPROXQUERY answer and how many nodes the scan evaluated to find it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedScan {
    /// `max_t r̃(s, t)`, bitwise that of
    /// [`ResistanceSketch::eccentricity`].
    pub value: f64,
    /// The lowest node id attaining it.
    pub farthest: usize,
    /// Nodes whose distance was computed (`1..=n`).
    pub evaluated: usize,
}

impl HullPanel {
    /// Pack the panel from a sketch and its hull boundary, taking every
    /// node's squared norm with [`vector::column_norms_sq`] (fresh builds
    /// and snapshot loads).
    ///
    /// # Panics
    ///
    /// Panics if `hull` is empty or contains out-of-range ids (the
    /// engine validates both before building).
    pub fn build(sketch: &ResistanceSketch, hull: &[usize]) -> Self {
        let mut node_norms = vec![0.0; sketch.node_count()];
        vector::column_norms_sq(sketch.flat(), sketch.dimension(), &mut node_norms);
        Self::with_norms(sketch, hull, node_norms)
    }

    /// Pack the panel from a sketch, its hull boundary and the squared
    /// norms `node_norms[u] = ‖x_u‖²` already taken — the rank-1 writes
    /// take them while each new column is in cache
    /// ([`ResistanceSketch::added_edge`]). They must be bitwise
    /// `vector::dot(x_u, x_u)`: the pruned scan's exactness rests on them
    /// (checked in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `hull` is empty or contains out-of-range ids, or if
    /// `node_norms` does not hold one norm per node.
    pub(crate) fn with_norms(
        sketch: &ResistanceSketch,
        hull: &[usize],
        node_norms: Vec<f64>,
    ) -> Self {
        assert!(!hull.is_empty(), "hull boundary must be non-empty");
        let n = sketch.node_count();
        assert_eq!(node_norms.len(), n, "one squared norm per node");
        debug_assert!(
            node_norms.iter().enumerate().all(|(u, sq)| {
                let x = sketch.embedding(u);
                sq.to_bits() == vector::dot(x, x).to_bits()
            }),
            "node norms must be bitwise dot(x, x)"
        );
        let d = sketch.dimension();
        let mut data = Vec::with_capacity(hull.len() * d);
        for &j in hull {
            data.extend_from_slice(sketch.embedding(j));
        }
        let n32 = u32::try_from(n).expect("node ids must fit in u32");
        let mut keyed: Vec<(f64, u32)> =
            node_norms.iter().zip(0..n32).map(|(&sq, u)| (sq.sqrt(), u)).collect();
        // `total_cmp` orders a NaN norm too; such a node's distances are
        // NaN and never win, so its position cannot change an answer.
        keyed.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let (by_norm_roots, by_norm) = keyed.into_iter().unzip();
        HullPanel { nodes: hull.to_vec(), data, node_norms, by_norm, by_norm_roots, d }
    }

    /// Hull boundary size `h`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the panel is empty (never true for a built panel).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The packed hull vertex ids, in candidate order.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The hull kernel: `max_k ‖x_s − row_k‖²` with the realizing node
    /// for every source `s` in `sources`, walking the panel once per
    /// block of up to [`MAX_LANES`] lanes. Results land in `out` in
    /// source order and are bitwise identical to
    /// `eccentricity_over(s, hull)` per source: each lane runs
    /// [`vector::dist_sq`]'s op sequence per row, in the hull's
    /// candidate order, with the same strict-`>` first-maximum rule.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or a source id is out of range.
    pub fn sweep_chunk(
        &self,
        sketch: &ResistanceSketch,
        sources: &[usize],
        out: &mut [(f64, usize)],
    ) {
        assert_eq!(sources.len(), out.len(), "output length mismatch");
        let mut i = 0;
        while i < sources.len() {
            let rem = sources.len() - i;
            // The same monomorphized-width dispatch the linalg sweeps
            // use: full 16-wide blocks, then one 1..=8-wide tail pass
            // (a 9..=15 remainder takes an 8-block plus a second tail).
            let width = if rem >= MAX_LANES { MAX_LANES } else { rem.min(8) };
            let (s, o) = (&sources[i..i + width], &mut out[i..i + width]);
            match width {
                1 => self.sweep_const::<1>(sketch, s, o),
                2 => self.sweep_const::<2>(sketch, s, o),
                3 => self.sweep_const::<3>(sketch, s, o),
                4 => self.sweep_const::<4>(sketch, s, o),
                5 => self.sweep_const::<5>(sketch, s, o),
                6 => self.sweep_const::<6>(sketch, s, o),
                7 => self.sweep_const::<7>(sketch, s, o),
                8 => self.sweep_const::<8>(sketch, s, o),
                16 => self.sweep_const::<16>(sketch, s, o),
                _ => unreachable!("dispatch widths are 1..=8 and 16"),
            }
            i += width;
        }
    }

    /// One monomorphized block: `B` sources against every panel row in a
    /// single pass. The sources are packed into a *dimension-major*
    /// (transposed) `d×B` scratch so the hot loop reads both streams
    /// stride-1 and advances all `B` lane accumulators per panel
    /// component: `B` independent in-order `(x−y)²` chains instead of
    /// one serialized chain per (source, row) pair, which is where the
    /// single-core batching win comes from — the per-lane op sequence is
    /// exactly [`vector::dist_sq`]'s, so per-lane answers stay bitwise
    /// exact.
    ///
    /// On x86-64 the lane loop is additionally dispatched to AVX-512 /
    /// AVX2 compilations of the *same* Rust source when the CPU reports
    /// the feature. Vectorizing **across lanes** keeps each lane's
    /// subtract → multiply → add sequence untouched (one lane per SIMD
    /// element, no reassociation, and rustc never contracts `a*b + c`
    /// into a fused multiply-add), so the wide paths remain bitwise
    /// identical to the scalar one — the unit and bench matrices compare
    /// all of them against `eccentricity_over`.
    fn sweep_const<const B: usize>(
        &self,
        sketch: &ResistanceSketch,
        sources: &[usize],
        out: &mut [(f64, usize)],
    ) {
        let d = self.d;
        let mut src = vec![0.0f64; d * B];
        for (b, &s) in sources.iter().enumerate() {
            for (t, &x) in sketch.embedding(s).iter().enumerate() {
                src[t * B + b] = x;
            }
        }
        let mut best = [(f64::NEG_INFINITY, usize::MAX); B];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU reports AVX-512F at runtime.
                unsafe { self.sweep_lanes_avx512::<B>(&src, &mut best) };
                out.copy_from_slice(&best);
                return;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reports AVX2 at runtime.
                unsafe { self.sweep_lanes_avx2::<B>(&src, &mut best) };
                out.copy_from_slice(&best);
                return;
            }
        }
        self.sweep_lanes::<B>(&src, &mut best);
        out.copy_from_slice(&best);
    }

    /// The lane sweep body: every panel row against the dimension-major
    /// `d×B` source block, `B` in-order accumulator chains per row.
    /// `inline(always)` so the `target_feature` wrappers below compile
    /// this exact loop nest at their wider vector width.
    #[inline(always)]
    fn sweep_lanes<const B: usize>(&self, src: &[f64], best: &mut [(f64, usize); B]) {
        let d = self.d;
        for (k, &node) in self.nodes.iter().enumerate() {
            let row = &self.data[k * d..(k + 1) * d];
            let mut acc = [0.0f64; B];
            for (t, &p) in row.iter().enumerate() {
                let lanes = &src[t * B..t * B + B];
                for (a, &x) in acc.iter_mut().zip(lanes) {
                    let diff = x - p;
                    *a += diff * diff;
                }
            }
            for (slot, &a) in best.iter_mut().zip(acc.iter()) {
                if a > slot.0 {
                    *slot = (a, node);
                }
            }
        }
    }

    /// [`Self::sweep_lanes`] compiled with AVX2 enabled (runtime-gated).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_lanes_avx2<const B: usize>(
        &self,
        src: &[f64],
        best: &mut [(f64, usize); B],
    ) {
        self.sweep_lanes::<B>(src, best);
    }

    /// [`Self::sweep_lanes`] compiled with AVX-512F enabled
    /// (runtime-gated).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_lanes_avx512<const B: usize>(
        &self,
        src: &[f64],
        best: &mut [(f64, usize); B],
    ) {
        self.sweep_lanes::<B>(src, best);
    }

    /// What-if warm-path fill: `base[u] = ‖x_s − x_u‖²` for every node,
    /// by norms decomposition over the precomputed per-node norms —
    /// one dot product per node instead of a fused
    /// subtract-square-add, and no per-candidate norm recomputation.
    /// `base[s]` is exactly `0.0` (the three terms cancel in floating
    /// point); other entries are within ulps of the fused values.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `out.len()` isn't the node
    /// count.
    pub fn resistances_from_norms_into(
        &self,
        sketch: &ResistanceSketch,
        out: &mut [f64],
        s: usize,
    ) {
        assert_eq!(out.len(), self.node_norms.len(), "output length mismatch");
        let src = sketch.embedding(s);
        let sn = self.node_norms[s];
        for (u, o) in out.iter_mut().enumerate() {
            let dot = vector::dot(src, sketch.embedding(u));
            *o = (sn + self.node_norms[u] - 2.0 * dot).max(0.0);
        }
    }

    /// Norm-pruned full scan: `max_t r̃(s, t)` over **all** nodes, bitwise
    /// equal to [`ResistanceSketch::eccentricity`] (value and farthest
    /// node) for every source, usually after evaluating a few percent of
    /// the nodes.
    ///
    /// Nodes are visited by descending `‖x_t‖`. The triangle inequality
    /// through the origin bounds every remaining distance by
    /// `(‖x_s‖ + ‖x_t‖)²`; once that bound, widened by a rounding slack of
    /// `8(d+8)` machine epsilons, falls strictly below the best distance
    /// so far, no later node can reach or tie it and the scan stops. A NaN
    /// bound never stops the scan. Each evaluated node uses the same
    /// [`vector::dist_sq`] as the full scan, and ties go to the lowest id,
    /// which is the full scan's first maximum in index order. `sketch`
    /// must be the one the panel was built from.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `sketch` covers a different node
    /// count than the panel.
    pub fn eccentricity_pruned(&self, sketch: &ResistanceSketch, s: usize) -> PrunedScan {
        assert_eq!(sketch.node_count(), self.by_norm.len(), "sketch does not match the panel");
        let src = sketch.embedding(s);
        let src_root = self.node_norms[s].sqrt();
        let slack = 1.0 + 8.0 * (self.d as f64 + 8.0) * f64::EPSILON;
        let mut best = (f64::NEG_INFINITY, 0usize);
        let mut evaluated = 0;
        for (&t, &root) in self.by_norm.iter().zip(&self.by_norm_roots) {
            let reach = src_root + root;
            if reach * reach * slack < best.0 {
                break;
            }
            let t = t as usize;
            let r = vector::dist_sq(src, sketch.embedding(t));
            evaluated += 1;
            if r > best.0 || (r == best.0 && t < best.1) {
                best = (r, t);
            }
        }
        PrunedScan { value: best.0, farthest: best.1, evaluated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SketchParams;
    use reecc_graph::generators::barabasi_albert;

    fn fixture() -> (ResistanceSketch, Vec<usize>) {
        let g = barabasi_albert(120, 2, 11);
        let p = SketchParams { epsilon: 0.4, seed: 5, ..Default::default() };
        let sketch = ResistanceSketch::build(&g, &p).unwrap();
        // A deliberately scrambled candidate order: the panel must
        // reproduce the tie rule in *candidate* order, not sorted order.
        let hull = vec![17usize, 3, 99, 42, 0, 64, 5, 119, 23, 88, 51];
        (sketch, hull)
    }

    #[test]
    fn exact_kernel_matches_eccentricity_over_bitwise() {
        let (sketch, hull) = fixture();
        let panel = HullPanel::build(&sketch, &hull);
        for s in 0..sketch.node_count() {
            let mut out = [(0.0, 0usize)];
            panel.sweep_chunk(&sketch, &[s], &mut out);
            assert_eq!(out[0], sketch.eccentricity_over(s, &hull), "s={s}");
        }
    }

    #[test]
    fn batch_sweep_matches_exact_kernel_bitwise_at_every_width() {
        let (sketch, hull) = fixture();
        let panel = HullPanel::build(&sketch, &hull);
        let sources: Vec<usize> = (0..sketch.node_count()).rev().collect();
        for width in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 120] {
            let batch = &sources[..width.min(sources.len())];
            let mut out = vec![(0.0, 0usize); batch.len()];
            panel.sweep_chunk(&sketch, batch, &mut out);
            for (&s, got) in batch.iter().zip(&out) {
                assert_eq!(*got, sketch.eccentricity_over(s, &hull), "w={width}");
            }
        }
    }

    #[test]
    fn pruned_scan_breaks_exact_ties_like_the_full_scan() {
        use crate::sketch::SketchDiagnostics;
        // Hand-placed 2-d embeddings with exact ties: duplicated points,
        // a symmetric cross, and node 9, which ties node 3 from source 1
        // but is visited first because its norm is larger.
        let pts = [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [0.0, -1.0],
            [1.0, 0.0],
            [0.5, 0.5],
            [-1.0, 0.0],
            [0.25, 0.0],
            [1.0, 2.0],
        ];
        let rows = (0..2).map(|i| pts.iter().map(|p| p[i]).collect()).collect();
        let diagnostics =
            SketchDiagnostics { rows: 2, converged_first_try: 2, ..Default::default() };
        let sketch = ResistanceSketch::from_parts(rows, pts.len(), 0.5, diagnostics).unwrap();
        let panel = HullPanel::build(&sketch, &[1]);
        for s in 0..pts.len() {
            let scan = panel.eccentricity_pruned(&sketch, s);
            let (value, farthest) = sketch.eccentricity(s);
            assert_eq!(
                (scan.value.to_bits(), scan.farthest),
                (value.to_bits(), farthest),
                "s={s}"
            );
            assert!((1..=pts.len()).contains(&scan.evaluated), "s={s}");
        }
        // From source 1, node 9 (visited first) and node 3 tie at 4: the
        // lower id wins. The scan stops before node 6, whose bound
        // (1 + √½)² < 4.
        let scan = panel.eccentricity_pruned(&sketch, 1);
        assert_eq!((scan.value, scan.farthest, scan.evaluated), (4.0, 3, 7));
    }

    #[test]
    fn pruned_scan_skips_most_nodes_of_a_periphery_graph() {
        use reecc_graph::generators::{holme_kim, with_pendant_periphery};
        // The bitwise tests cannot see a scan that never prunes; this one
        // pins that pruning happens where it should: on a graph with a
        // pendant periphery most sources stop after a minority of nodes.
        let g = with_pendant_periphery(&holme_kim(100, 3, 0.6, 5), 20, 3, 6);
        let p = SketchParams { epsilon: 0.5, seed: 5, ..Default::default() };
        let sketch = ResistanceSketch::build(&g, &p).unwrap();
        let panel = HullPanel::build(&sketch, &[0]);
        let n = sketch.node_count();
        let evaluated: usize =
            (0..n).map(|s| panel.eccentricity_pruned(&sketch, s).evaluated).sum();
        let mean = evaluated as f64 / (n * n) as f64;
        assert!(mean < 0.25, "mean evaluated fraction {mean}");
    }

    #[test]
    fn norms_fill_matches_fused_distances_and_zeros_the_source() {
        let (sketch, hull) = fixture();
        let panel = HullPanel::build(&sketch, &hull);
        let n = sketch.node_count();
        let mut base = vec![0.0; n];
        for s in [0usize, 7, 64, 119] {
            panel.resistances_from_norms_into(&sketch, &mut base, s);
            assert_eq!(base[s], 0.0, "self-distance must cancel exactly");
            let fused = sketch.resistances_from(s);
            for u in 0..n {
                assert!(
                    (base[u] - fused[u]).abs() <= 1e-9 * (1.0 + fused[u]),
                    "s={s} u={u}: {} vs {}",
                    base[u],
                    fused[u]
                );
            }
        }
    }
}
