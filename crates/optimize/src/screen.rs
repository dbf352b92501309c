//! Scoring candidate edges on the sketch, before any CG solve (DESIGN §17).
//!
//! The Sherman–Morrison score of a candidate `(u, v)` (DESIGN §3) needs
//! the potentials `w = L†(e_u − e_v)` only through `w_s − w_t` and
//! `r_uv`, and the sketch already estimates both:
//! `w_s − w_t ≈ ⟨x_s − x_t, x_u − x_v⟩` and `r_uv ≈ r̃_uv = ‖x_u − x_v‖²`.
//! Shifting every embedding by the source's, `y_i = x_i − x_s`, turns the
//! first into `⟨y_v − y_u, y_t⟩`, a difference of two entries of
//! `H[i][t] = ⟨y_{h_i}, y_t⟩` over the candidates' endpoints `h_i`. So one
//! pass over the sketch scores every candidate:
//!
//! `screen(u, v) = max_t [r̃(s, t) − (H[v][t] − H[u][t])² / (1 + r̃_uv)]`.
//!
//! An endpoint equal to `s` has `y_s = 0` and needs no row: its entries
//! are all zero (MINRECC's direct edge `(s, far)`).
//!
//! [`screen_edges`] computes the scores; [`shortlist`] picks the
//! [`CONFIRM`] best, which CHMINRECC and MINRECC (adding its direct edge)
//! hand to [`crate::CandidateEvaluator::evaluate_edges_cancellable`] to
//! decide.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use reecc_core::sketch::ResistanceSketch;
use reecc_graph::Edge;
use reecc_linalg::par;

/// How many of the best-screened candidates go on to a CG solve in each
/// CHMINRECC / MINRECC iteration (DESIGN §17.2).
pub const CONFIRM: usize = 64;

/// Endpoints per dimension-major block: one accumulator lane each.
const LANES: usize = 8;

/// Nodes one block-kernel call takes together, as independent chains.
const GROUP: usize = 4;

/// Below this many multiply-adds (`endpoints × n × d`) the pass stays on
/// the calling thread: a spawn costs more than it saves.
const PARALLEL_MIN_WORK: usize = 1 << 16;

/// Nodes a worker scans between polls of the cancel token.
const CANCEL_STRIDE: usize = 64;

/// Screen scores of `candidates` for source `s`, in candidate order:
/// the formula of the module docs, with `base` as `r̃(s, ·)` (the
/// [`crate::CandidateEvaluator::distance_scan`] vector). A term that is
/// NaN never wins the max, as in
/// [`reecc_core::update::updated_eccentricity`]; a candidate left with no
/// winning term scores `-∞`.
///
/// The nodes are split into contiguous chunks, one per thread of
/// [`par::resolve_threads`]`(threads)` (one thread below 2¹⁶
/// multiply-adds), and run through [`par::fork_join`].
/// Every `H` entry is one in-order fold, whatever chunk or kernel group
/// computes it, and chunk maxima merge in node order under the same
/// strict `>`, so the scores are bitwise equal at every thread count.
/// Workers allocate nothing: each works in its own slice of one buffer
/// allocated here. Returns `None` if `cancel` was observed (workers poll
/// it every 64 nodes).
///
/// # Panics
///
/// Panics if `base.len()` is not the sketch's node count, or if `s` or a
/// candidate endpoint is out of range.
pub fn screen_edges(
    sketch: &ResistanceSketch,
    base: &[f64],
    s: usize,
    candidates: &[Edge],
    threads: usize,
    cancel: Option<&AtomicBool>,
) -> Option<Vec<f64>> {
    let (n, d) = (sketch.node_count(), sketch.dimension());
    assert_eq!(base.len(), n, "base distances sized for a different graph");
    assert!(s < n, "source out of range");
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    if candidates.is_empty() {
        return if cancelled() { None } else { Some(Vec::new()) };
    }
    // One row of H per distinct endpoint other than `s`, ascending; `s`
    // maps to the always-zero slot after the last block.
    let mut ends: Vec<usize> =
        candidates.iter().flat_map(|e| [e.u, e.v]).filter(|&u| u != s).collect();
    ends.sort_unstable();
    ends.dedup();
    let zero = ends.len().next_multiple_of(LANES);
    let width = zero + 1;
    let slot = |u: usize| -> u32 {
        let i = if u == s { zero } else { ends.binary_search(&u).expect("endpoint listed") };
        u32::try_from(i).expect("fewer than 2^32 endpoints")
    };
    let pairs: Vec<(u32, u32)> = candidates.iter().map(|e| (slot(e.u), slot(e.v))).collect();
    let denoms: Vec<f64> =
        candidates.iter().map(|e| 1.0 + sketch.resistance(e.u, e.v)).collect();
    let block = ShiftedBlock::pack(sketch, s, &ends);

    let workers = if ends.len() * n * d < PARALLEL_MIN_WORK {
        1
    } else {
        par::worker_count(threads, n.div_ceil(GROUP))
    };
    let chunk = n.div_ceil(workers);
    // Per chunk: GROUP shifted nodes, their GROUP rows of H (the zero
    // slot is never written), and the running maximum of every candidate.
    let per = GROUP * d + GROUP * width + candidates.len();
    let mut scratch = vec![0.0; n.div_ceil(chunk) * per];
    let scan = |range: Range<usize>, buf: &mut [f64]| -> bool {
        let (ys, rest) = buf.split_at_mut(GROUP * d);
        let (rows, best) = rest.split_at_mut(GROUP * width);
        best.fill(f64::NEG_INFINITY);
        let xs = sketch.embedding(s);
        let mut t = range.start;
        while t < range.end {
            if (t - range.start) % CANCEL_STRIDE == 0 && cancelled() {
                return false;
            }
            let g = GROUP.min(range.end - t);
            for (j, y) in ys.chunks_exact_mut(d).take(g).enumerate() {
                for ((yk, &xk), &sk) in y.iter_mut().zip(sketch.embedding(t + j)).zip(xs) {
                    *yk = xk - sk;
                }
            }
            block.dots(ys, rows, width);
            for (j, row) in rows.chunks_exact(width).take(g).enumerate() {
                fold_row(row, base[t + j], &pairs, &denoms, best);
            }
            t += g;
        }
        true
    };
    let ranges = (0..n).step_by(chunk).map(|lo| lo..n.min(lo + chunk));
    let finished = par::fork_join(ranges.zip(scratch.chunks_mut(per)), |(r, buf)| scan(r, buf));
    if finished.contains(&false) {
        return None;
    }
    // Chunk maxima merge in node order under the scan's own rule.
    let mut parts = scratch.chunks(per).map(|buf| &buf[per - candidates.len()..]);
    let mut scores = parts.next().expect("at least one chunk").to_vec();
    for part in parts {
        for (m, &v) in scores.iter_mut().zip(part) {
            if v > *m {
                *m = v;
            }
        }
    }
    Some(scores)
}

/// Indices of the `keep` lowest finite `scores`, ascending by index. Equal
/// scores rank toward the lower index; non-finite scores are never kept.
pub fn shortlist(scores: &[f64], keep: usize) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..scores.len()).filter(|&i| scores[i].is_finite()).collect();
    if kept.len() > keep {
        kept.select_nth_unstable_by(keep, |&a, &b| {
            scores[a].partial_cmp(&scores[b]).expect("finite scores").then(a.cmp(&b))
        });
        kept.truncate(keep);
        kept.sort_unstable();
    }
    kept
}

/// One node's row of `H` folded into every candidate's running maximum:
/// `r − (row[v] − row[u])² / denom`, kept when strictly greater (so a NaN
/// term never wins).
#[inline]
fn fold_row(row: &[f64], r: f64, pairs: &[(u32, u32)], denoms: &[f64], best: &mut [f64]) {
    for ((&(a, b), &den), m) in pairs.iter().zip(denoms).zip(best) {
        let delta = row[b as usize] - row[a as usize];
        let val = r - delta * delta / den;
        if val > *m {
            *m = val;
        }
    }
}

/// The shifted endpoints `y_h = x_h − x_s`, packed dimension-major in
/// blocks of [`LANES`] (the layout of the hull's vertex block): entry `k`
/// of endpoint `LANES·b + l` sits at `data[(b·d + k)·LANES + l]`, and the
/// last block's unused lanes are zero.
struct ShiftedBlock {
    d: usize,
    data: Vec<f64>,
}

impl ShiftedBlock {
    fn pack(sketch: &ResistanceSketch, s: usize, ends: &[usize]) -> Self {
        let d = sketch.dimension();
        let mut data = vec![0.0; ends.len().next_multiple_of(LANES) * d];
        let xs = sketch.embedding(s);
        for (i, &h) in ends.iter().enumerate() {
            let (b, l) = (i / LANES, i % LANES);
            let block = &mut data[b * d * LANES..(b + 1) * d * LANES];
            for ((lanes, &xk), &sk) in
                block.chunks_exact_mut(LANES).zip(sketch.embedding(h)).zip(xs)
            {
                lanes[l] = xk - sk;
            }
        }
        ShiftedBlock { d, data }
    }

    /// `rows[j·width + i] = ⟨y_{h_i}, ys[j]⟩` for the [`GROUP`] shifted
    /// nodes packed in `ys` (`d` entries each) and every endpoint `i`,
    /// padding lanes included. A short last group leaves stale nodes in
    /// its unused slots; their rows are computed and never read.
    fn dots(&self, ys: &[f64], rows: &mut [f64], width: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reports AVX2 at runtime.
                unsafe { dots_avx2(&self.data, self.d, ys, rows, width) };
                return;
            }
        }
        dots_blocks(&self.data, self.d, ys, rows, width);
    }
}

/// The block kernel behind [`ShiftedBlock::dots`]: [`GROUP`] nodes
/// against each block at once, `GROUP × LANES` independent chains. Every
/// lane is `dot`'s fold — from `-0.0`, element by element, an unfused
/// multiply then add — so an entry's bits do not depend on the group it
/// was computed in, and the AVX2 compilation below (SIMD across lanes,
/// never within one) gives the same bits as this one.
#[inline(always)]
fn dots_blocks(data: &[f64], d: usize, ys: &[f64], rows: &mut [f64], width: usize) {
    let ys: [&[f64]; GROUP] = std::array::from_fn(|j| &ys[j * d..(j + 1) * d]);
    for (b, block) in data.chunks_exact(d * LANES).enumerate() {
        for (j, acc) in block_dots(block, ys).iter().enumerate() {
            let at = j * width + b * LANES;
            rows[at..at + LANES].copy_from_slice(acc);
        }
    }
}

/// `⟨ys[j], lane l of block⟩` for every node `j` and lane `l`.
#[inline(always)]
fn block_dots(block: &[f64], ys: [&[f64]; GROUP]) -> [[f64; LANES]; GROUP] {
    let mut acc = [[-0.0f64; LANES]; GROUP];
    for (k, lanes) in block.chunks_exact(LANES).enumerate() {
        for (a, y) in acc.iter_mut().zip(&ys) {
            let yk = y[k];
            for (s, &v) in a.iter_mut().zip(lanes) {
                *s += yk * v;
            }
        }
    }
    acc
}

/// [`dots_blocks`] compiled with AVX2 enabled (runtime-gated).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dots_avx2(data: &[f64], d: usize, ys: &[f64], rows: &mut [f64], width: usize) {
    dots_blocks(data, d, ys, rows, width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::SketchParams;
    use reecc_graph::generators::barabasi_albert;
    use reecc_graph::Graph;

    fn sketch_of(g: &Graph, seed: u64) -> ResistanceSketch {
        ResistanceSketch::build(g, &SketchParams { epsilon: 0.5, seed, ..Default::default() })
            .unwrap()
    }

    /// Pairs among every `stride`-th node that are non-edges, plus the
    /// direct edge from `s` to its sketch-farthest node.
    fn pool(g: &Graph, sketch: &ResistanceSketch, s: usize, stride: usize) -> Vec<Edge> {
        let nodes: Vec<usize> = (0..g.node_count()).step_by(stride).collect();
        let mut out = Vec::new();
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                if !g.has_edge(u, v) {
                    out.push(Edge::new(u, v));
                }
            }
        }
        let (_, far) = sketch.eccentricity(s);
        let direct = Edge::new(s, far);
        if !g.has_edge(s, far) && !out.contains(&direct) {
            out.push(direct);
        }
        out
    }

    /// The formula of the module docs, one `O(n·d)` scan per candidate
    /// straight off the unshifted embeddings.
    fn brute_force(sketch: &ResistanceSketch, base: &[f64], s: usize, e: Edge) -> f64 {
        let (xs, xu, xv) = (sketch.embedding(s), sketch.embedding(e.u), sketch.embedding(e.v));
        let denom = 1.0 + sketch.resistance(e.u, e.v);
        let mut best = f64::NEG_INFINITY;
        for (t, &r) in base.iter().enumerate() {
            let xt = sketch.embedding(t);
            let ip: f64 = (0..xs.len()).map(|k| (xs[k] - xt[k]) * (xu[k] - xv[k])).sum();
            let val = r - ip * ip / denom;
            if val > best {
                best = val;
            }
        }
        best
    }

    #[test]
    fn scores_are_bitwise_equal_at_every_thread_count() {
        // n = 203: the chunks of 2 and 4 threads (102 + 101, 51·3 + 50)
        // and the 4-node groups end off each other's boundaries.
        let g = barabasi_albert(203, 2, 17);
        let sketch = sketch_of(&g, 3);
        let s = 202;
        let base = sketch.resistances_from(s);
        let candidates = pool(&g, &sketch, s, 9);
        assert!(candidates.iter().any(|e| e.touches(s)), "the pool needs a direct edge");
        let reference = screen_edges(&sketch, &base, s, &candidates, 1, None).unwrap();
        assert_eq!(reference.len(), candidates.len());
        assert!(reference.iter().all(|x| x.is_finite()));
        for threads in [2usize, 4] {
            let got = screen_edges(&sketch, &base, s, &candidates, threads, None).unwrap();
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scores_agree_with_the_brute_force_formula() {
        let g = barabasi_albert(150, 3, 5);
        let sketch = sketch_of(&g, 8);
        for s in [0usize, 77, 149] {
            let base = sketch.resistances_from(s);
            let candidates = pool(&g, &sketch, s, 11);
            let got = screen_edges(&sketch, &base, s, &candidates, 2, None).unwrap();
            for (&e, &score) in candidates.iter().zip(&got) {
                let want = brute_force(&sketch, &base, s, e);
                assert!(
                    (score - want).abs() <= 1e-12 * want.abs(),
                    "s={s} {e:?}: screen {score} vs brute force {want}"
                );
            }
        }
    }

    #[test]
    fn a_set_cancel_token_stops_the_screen() {
        let g = barabasi_albert(120, 2, 4);
        let sketch = sketch_of(&g, 1);
        let base = sketch.resistances_from(0);
        let candidates = pool(&g, &sketch, 0, 7);
        let flag = AtomicBool::new(true);
        for threads in [1usize, 3] {
            assert!(
                screen_edges(&sketch, &base, 0, &candidates, threads, Some(&flag)).is_none()
            );
        }
        flag.store(false, Ordering::Relaxed);
        assert_eq!(
            screen_edges(&sketch, &base, 0, &candidates, 3, Some(&flag)),
            screen_edges(&sketch, &base, 0, &candidates, 3, None)
        );
    }

    #[test]
    fn shortlist_keeps_the_lowest_finite_scores_in_index_order() {
        let scores = [3.0, f64::NAN, 1.0, 2.0, f64::NEG_INFINITY, 1.0, f64::INFINITY, 0.5];
        assert_eq!(shortlist(&scores, 3), vec![2, 5, 7]);
        // Equal scores rank toward the lower index.
        assert_eq!(shortlist(&scores, 2), vec![2, 7]);
        // Non-finite scores stay out even when there is room.
        assert_eq!(shortlist(&scores, 64), vec![0, 2, 3, 5, 7]);
        assert!(shortlist(&scores, 0).is_empty());
        assert!(shortlist(&[], 4).is_empty());
    }
}
