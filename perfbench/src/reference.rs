//! Reference resistances, computed apart from the program: nothing here
//! calls `reecc-linalg` or `reecc-core`.
//!
//! * [`RefGraph::resistance`] solves `L x = e_u − e_v` by conjugate
//!   gradients with diagonal scaling and returns `x_u − x_v`.
//! * [`grounded_inverse_diagonal`] factors the Laplacian with row and
//!   column `s` removed (dense Cholesky) and returns the diagonal of its
//!   inverse, which is `r(s, v)` for every `v`; its maximum is the exact
//!   resistance eccentricity `c(s)`.

/// A simple undirected graph in adjacency-array form.
#[derive(Clone)]
pub struct RefGraph {
    n: usize,
    offsets: Vec<usize>,
    nbrs: Vec<usize>,
}

impl RefGraph {
    pub fn new(n: usize, edges: &[(usize, usize)]) -> RefGraph {
        let mut deg = vec![0usize; n];
        for &(a, b) in edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut fill = offsets.clone();
        let mut nbrs = vec![0usize; offsets[n]];
        for &(a, b) in edges {
            nbrs[fill[a]] = b;
            fill[a] += 1;
            nbrs[fill[b]] = a;
            fill[b] += 1;
        }
        for v in 0..n {
            nbrs[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        RefGraph { n, offsets, nbrs }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.n)
            .flat_map(|u| {
                self.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v))
            })
            .collect()
    }

    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.nbrs[self.offsets[v]..self.offsets[v + 1]]
    }

    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    pub fn with_edges(&self, extra: &[(usize, usize)]) -> RefGraph {
        let mut edges = self.edges();
        edges.extend_from_slice(extra);
        RefGraph::new(self.n, &edges)
    }

    fn laplacian_times(&self, x: &[f64], y: &mut [f64]) {
        for v in 0..self.n {
            let nb = self.neighbors(v);
            y[v] = nb.len() as f64 * x[v] - nb.iter().map(|&w| x[w]).sum::<f64>();
        }
    }

    /// Effective resistance `r(u, v)` to a relative residual of `1e-10`.
    pub fn resistance(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.0;
        }
        let n = self.n;
        let inv_deg: Vec<f64> =
            (0..n).map(|w| 1.0 / self.neighbors(w).len().max(1) as f64).collect();
        let mut x = vec![0.0; n];
        let mut r = vec![0.0; n];
        r[u] = 1.0;
        r[v] = -1.0;
        let b_norm = 2f64.sqrt();
        let mut z: Vec<f64> = r.iter().zip(&inv_deg).map(|(a, d)| a * d).collect();
        let mut p = z.clone();
        let mut ap = vec![0.0; n];
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        for _ in 0..20 * n {
            self.laplacian_times(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            if r.iter().map(|a| a * a).sum::<f64>().sqrt() <= 1e-10 * b_norm {
                break;
            }
            for i in 0..n {
                z[i] = r[i] * inv_deg[i];
            }
            let rz_next: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_next / rz;
            rz = rz_next;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        x[u] - x[v]
    }
}

/// `r(s, v)` for every `v` (0 at `v = s`): the diagonal of the inverse of
/// the Laplacian grounded at `s`, by dense Cholesky. `O(n³)`; meant for
/// graphs of a few thousand nodes at most.
pub fn grounded_inverse_diagonal(g: &RefGraph, s: usize) -> Vec<f64> {
    let n = g.node_count();
    let m = n - 1;
    // Grounded index: nodes other than s, in order.
    let idx = |v: usize| if v < s { v } else { v - 1 };
    let mut a = vec![0.0f64; m * m];
    for v in (0..n).filter(|&v| v != s) {
        let i = idx(v);
        a[i * m + i] = g.neighbors(v).len() as f64;
        for &w in g.neighbors(v) {
            if w != s {
                a[i * m + idx(w)] = -1.0;
            }
        }
    }
    // In-place lower Cholesky factor, row-major: a = R Rᵀ.
    for j in 0..m {
        let d = a[j * m + j] - a[j * m..j * m + j].iter().map(|x| x * x).sum::<f64>();
        assert!(d > 0.0, "grounded Laplacian is not positive definite (disconnected graph?)");
        let pivot = d.sqrt();
        a[j * m + j] = pivot;
        let row_j = a[j * m..j * m + j].to_vec();
        for i in j + 1..m {
            let row_i = &mut a[i * m..i * m + j + 1];
            let dot: f64 = row_i[..j].iter().zip(&row_j).map(|(x, y)| x * y).sum();
            row_i[j] = (row_i[j] - dot) / pivot;
        }
    }
    // diag(A⁻¹)_i = Σ_k (R⁻¹)_{k,i}²: solve R y = e_i by forward
    // substitution for each i (y is zero above i).
    let mut diag = vec![0.0; n];
    let mut y = vec![0.0f64; m];
    for i in 0..m {
        y[i] = 1.0 / a[i * m + i];
        let mut acc = y[i] * y[i];
        for k in i + 1..m {
            let row = &a[k * m..k * m + k];
            let dot: f64 = row[i..k].iter().zip(&y[i..k]).map(|(x, z)| x * z).sum();
            y[k] = -dot / a[k * m + k];
            acc += y[k] * y[k];
        }
        let v = if i < s { i } else { i + 1 };
        diag[v] = acc;
    }
    diag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-8 * b.abs().max(1.0)
    }

    fn path(n: usize) -> RefGraph {
        RefGraph::new(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    fn cycle(n: usize) -> RefGraph {
        RefGraph::new(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    fn complete(n: usize) -> RefGraph {
        let edges: Vec<_> = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
        RefGraph::new(n, &edges)
    }

    fn star(leaves: usize) -> RefGraph {
        RefGraph::new(leaves + 1, &(1..=leaves).map(|i| (0, i)).collect::<Vec<_>>())
    }

    #[test]
    fn path_resistance_is_hop_distance() {
        let g = path(12);
        for k in 0..12 {
            assert!(close(g.resistance(0, k), k as f64), "cg r(0,{k})");
        }
        let diag = grounded_inverse_diagonal(&g, 3);
        for (v, &r) in diag.iter().enumerate() {
            assert!(close(r, (v as f64 - 3.0).abs()), "dense r(3,{v}) = {r}");
        }
    }

    #[test]
    fn cycle_resistance_is_k_times_n_minus_k_over_n() {
        let n = 11;
        let g = cycle(n);
        let diag = grounded_inverse_diagonal(&g, 0);
        for (k, &dense) in diag.iter().enumerate() {
            let want = (k * (n - k)) as f64 / n as f64;
            assert!(close(g.resistance(0, k), want), "cg r(0,{k})");
            assert!(close(dense, want), "dense r(0,{k})");
        }
    }

    #[test]
    fn complete_graph_resistance_is_two_over_n() {
        let n = 9;
        let g = complete(n);
        let diag = grounded_inverse_diagonal(&g, 4);
        for v in (0..n).filter(|&v| v != 4) {
            assert!(close(g.resistance(4, v), 2.0 / n as f64));
            assert!(close(diag[v], 2.0 / n as f64));
        }
    }

    #[test]
    fn star_resistances_are_one_and_two() {
        let g = star(7);
        assert!(close(g.resistance(0, 5), 1.0));
        assert!(close(g.resistance(2, 5), 2.0));
        let diag = grounded_inverse_diagonal(&g, 1);
        assert!(close(diag[0], 1.0));
        assert!(close(diag[6], 2.0));
        assert_eq!(diag[1], 0.0);
    }

    #[test]
    fn adding_an_edge_updates_adjacency() {
        let g = path(5).with_edges(&[(0, 4)]);
        assert!(g.has_edge(4, 0));
        assert!(close(g.resistance(0, 2), 2.0 * 3.0 / 5.0));
    }
}
