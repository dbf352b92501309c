//! Uniform spanning trees via Wilson's algorithm.
//!
//! Wilson's algorithm (STOC'96) samples a spanning tree *exactly*
//! uniformly at random using loop-erased random walks, in expected time
//! proportional to the mean hitting time. The paper's related work
//! (\[35\]–\[37\]) builds resistance estimators on top of UST sampling —
//! `reecc-core::estimators` implements that comparator; this module is
//! the sampler itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Edge, Graph, NodeId};

/// Sample one uniform spanning tree of a connected graph with Wilson's
/// loop-erased random-walk algorithm. Returns the `n − 1` tree edges.
///
/// # Panics
///
/// Panics if the graph is empty. Loops forever on a disconnected graph
/// (callers validate connectivity; the library's public entry points do).
pub fn wilson_spanning_tree(g: &Graph, seed: u64) -> Vec<Edge> {
    let n = g.node_count();
    assert!(n > 0, "graph must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    // `next[v]` is v's successor pointer in the partial tree walk.
    let mut in_tree = vec![false; n];
    let mut next: Vec<NodeId> = vec![usize::MAX; n];
    // Root the tree anywhere; node 0 by convention.
    in_tree[0] = true;
    for start in 1..n {
        if in_tree[start] {
            continue;
        }
        // Random walk from `start` until the tree is hit, recording
        // successor pointers; the pointer structure automatically
        // loop-erases (revisiting a node overwrites its successor).
        let mut u = start;
        while !in_tree[u] {
            let nb = g.neighbors(u);
            let v = nb[rng.gen_range(0..nb.len())];
            next[u] = v;
            u = v;
        }
        // Commit the loop-erased path to the tree.
        let mut u = start;
        while !in_tree[u] {
            in_tree[u] = true;
            u = next[u];
        }
    }
    (1..n).map(|v| Edge::new(v, next[v])).collect()
}

/// Check that an edge list forms a spanning tree of `g`: exactly `n − 1`
/// edges of `g`, touching all nodes, acyclic (via union–find).
pub fn is_spanning_tree(g: &Graph, edges: &[Edge]) -> bool {
    let n = g.node_count();
    if n == 0 || edges.len() != n - 1 {
        return n <= 1 && edges.is_empty();
    }
    if !edges.iter().all(|e| g.has_edge(e.u, e.v)) {
        return false;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for e in edges {
        let (ru, rv) = (find(&mut parent, e.u), find(&mut parent, e.v));
        if ru == rv {
            return false; // cycle
        }
        parent[ru] = rv;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, complete, cycle, line};
    use std::collections::HashMap;

    #[test]
    fn tree_is_valid_on_families() {
        for (name, g) in [
            ("line", line(10)),
            ("cycle", cycle(9)),
            ("complete", complete(7)),
            ("ba", barabasi_albert(60, 2, 4)),
        ] {
            for seed in 0..5 {
                let t = wilson_spanning_tree(&g, seed);
                assert!(is_spanning_tree(&g, &t), "{name} seed {seed}: {t:?}");
            }
        }
    }

    #[test]
    fn tree_of_a_tree_is_itself() {
        let g = line(8);
        let t = wilson_spanning_tree(&g, 3);
        let mut got = t.clone();
        got.sort_unstable();
        assert_eq!(got, g.edges().to_vec());
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        assert!(wilson_spanning_tree(&g, 0).is_empty());
        assert!(is_spanning_tree(&g, &[]));
    }

    #[test]
    fn uniformity_on_the_triangle() {
        // K3 has exactly 3 spanning trees (drop any one edge); each must
        // appear ~1/3 of the time.
        let g = complete(3);
        let mut counts: HashMap<Vec<Edge>, usize> = HashMap::new();
        let trials = 6000;
        for seed in 0..trials {
            let mut t = wilson_spanning_tree(&g, seed);
            t.sort_unstable();
            *counts.entry(t).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 3, "all three trees must appear");
        for (tree, count) in &counts {
            let freq = *count as f64 / trials as f64;
            assert!((freq - 1.0 / 3.0).abs() < 0.03, "tree {tree:?} frequency {freq}");
        }
    }

    #[test]
    fn spanning_tree_checker_rejects_bad_inputs() {
        let g = cycle(5);
        // Too few edges.
        assert!(!is_spanning_tree(&g, &[Edge::new(0, 1)]));
        // A cycle of 4 edges + 1 non-adjacent pair is not a tree.
        let bad = vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(0, 3)];
        assert!(!is_spanning_tree(&g, &bad));
        // Non-edges of g rejected.
        let non_edge = vec![Edge::new(0, 2), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 4)];
        assert!(!is_spanning_tree(&g, &non_edge));
    }

    #[test]
    fn determinism_per_seed() {
        let g = barabasi_albert(40, 2, 1);
        assert_eq!(wilson_spanning_tree(&g, 9), wilson_spanning_tree(&g, 9));
        assert_ne!(wilson_spanning_tree(&g, 9), wilson_spanning_tree(&g, 10));
    }
}
