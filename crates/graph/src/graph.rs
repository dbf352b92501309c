//! The core immutable CSR graph type.

use crate::GraphError;

/// Node identifier. Graphs are indexed `0..n`.
pub type NodeId = usize;

/// An undirected edge as an ordered pair `(min, max)`.
///
/// Edges are always normalized so `0 <= u < v < n`; self-loops are not
/// representable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Create a normalized edge from two distinct endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loops are not valid edges");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The endpoint other than `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// Whether `x` is an endpoint.
    pub fn touches(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }
}

/// A connected-or-not, undirected, unweighted simple graph in CSR form.
///
/// The adjacency of node `i` is the slice
/// `neighbors[offsets[i]..offsets[i + 1]]`, kept sorted for binary-search
/// adjacency tests. Every undirected edge appears twice in `neighbors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    /// Canonical edge list (u < v), sorted lexicographically.
    edges: Vec<Edge>,
}

impl Graph {
    /// Build a graph from `n` nodes and an iterator of (possibly messy)
    /// endpoint pairs. Self-loops are dropped and duplicate edges are merged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, pairs: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut edges = Vec::new();
        for (a, b) in pairs {
            if a >= n {
                return Err(GraphError::NodeOutOfRange { node: a, n });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange { node: b, n });
            }
            if a == b {
                continue;
            }
            edges.push(Edge::new(a, b));
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(Self::from_canonical_edges(n, edges))
    }

    /// Build from an already sorted, deduplicated, in-range canonical edge
    /// list. This is the fast path used by [`crate::GraphBuilder`].
    pub(crate) fn from_canonical_edges(n: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be strictly sorted");
        let mut degrees = vec![0usize; n];
        for e in &edges {
            degrees[e.u] += 1;
            degrees[e.v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0usize; 2 * edges.len()];
        for e in &edges {
            neighbors[cursor[e.u]] = e.v;
            cursor[e.u] += 1;
            neighbors[cursor[e.v]] = e.u;
            cursor[e.v] += 1;
        }
        // Adjacency slices are sorted because edges were processed in
        // lexicographic order for `u` but not for `v`; sort each slice.
        for i in 0..n {
            neighbors[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Graph { n, offsets, neighbors, edges }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `i`.
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted neighbor slice of node `i`.
    #[inline]
    pub fn neighbors(&self, i: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether `{a, b}` is an edge. `O(log deg)`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || a >= self.n || b >= self.n {
            return false;
        }
        // Probe the smaller adjacency list.
        let (x, y) = if self.degree(a) <= self.degree(b) { (a, b) } else { (b, a) };
        self.neighbors(x).binary_search(&y).is_ok()
    }

    /// Canonical (sorted) edge list.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n
    }

    /// Sum of all degrees (`2m`).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Average degree `2m / n`.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.degree_sum() as f64 / self.n as f64
        }
    }

    /// Return a new graph with `extra` edges added (duplicates and existing
    /// edges are ignored; endpoints must be in range).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for out-of-range endpoints.
    pub fn with_edges(&self, extra: &[Edge]) -> Result<Graph, GraphError> {
        for e in extra {
            if e.v >= self.n {
                return Err(GraphError::NodeOutOfRange { node: e.v, n: self.n });
            }
        }
        let mut edges = self.edges.clone();
        edges.extend_from_slice(extra);
        edges.sort_unstable();
        edges.dedup();
        Ok(Graph::from_canonical_edges(self.n, edges))
    }

    /// Return a new graph with a single extra edge added (an edge already
    /// present leaves the graph as it is).
    ///
    /// The edge is spliced in: one insertion into the sorted edge list
    /// and one into each endpoint's sorted adjacency slice, `O(n + m)`
    /// copying with no sort. A hand-built `Edge` with `u > v` is
    /// normalized first, as [`Edge::new`] would.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for out-of-range endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `e` is a self-loop (`u == v`), as [`Edge::new`] does.
    pub fn with_edge(&self, e: Edge) -> Result<Graph, GraphError> {
        let e = Edge::new(e.u, e.v);
        if e.v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: e.v, n: self.n });
        }
        let at = match self.edges.binary_search(&e) {
            Ok(_) => return Ok(self.clone()),
            Err(at) => at,
        };
        let mut edges = Vec::with_capacity(self.edges.len() + 1);
        edges.extend_from_slice(&self.edges[..at]);
        edges.push(e);
        edges.extend_from_slice(&self.edges[at..]);
        // Where `v` goes in `u`'s sorted slice and `u` in `v`'s, as flat
        // indices into `neighbors`; `u < v`, so the first comes first.
        let slot = |a: NodeId, b: NodeId| {
            self.offsets[a] + self.neighbors(a).partition_point(|&x| x < b)
        };
        let (iu, iv) = (slot(e.u, e.v), slot(e.v, e.u));
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + 2);
        neighbors.extend_from_slice(&self.neighbors[..iu]);
        neighbors.push(e.v);
        neighbors.extend_from_slice(&self.neighbors[iu..iv]);
        neighbors.push(e.u);
        neighbors.extend_from_slice(&self.neighbors[iv..]);
        // Every slice after `u`'s starts one later, and every slice after
        // `v`'s one more.
        let offsets = self
            .offsets
            .iter()
            .enumerate()
            .map(|(i, &o)| o + usize::from(i > e.u) + usize::from(i > e.v))
            .collect();
        Ok(Graph { n: self.n, offsets, neighbors, edges })
    }

    /// Return a new graph with edge `e` removed.
    ///
    /// The result may be disconnected (removing a bridge); connectivity
    /// policy belongs to the caller, which can pre-check with
    /// [`crate::traversal::is_connected`] on the returned graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeNotFound`] if `e` is not an edge of the
    /// graph (out-of-range endpoints are by definition not edges).
    pub fn without_edge(&self, e: Edge) -> Result<Graph, GraphError> {
        if !self.has_edge(e.u, e.v) {
            return Err(GraphError::EdgeNotFound { u: e.u, v: e.v });
        }
        let edges: Vec<Edge> = self.edges.iter().copied().filter(|&x| x != e).collect();
        Ok(Graph::from_canonical_edges(self.n, edges))
    }

    /// The complement candidate set `(V × V) \ E` as canonical edges.
    ///
    /// Quadratic; intended for small graphs (exhaustive search, tests).
    pub fn non_edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if !self.has_edge(u, v) {
                    out.push(Edge { u, v });
                }
            }
        }
        out
    }

    /// Non-edges incident to `s`: the REMD candidate set `Q1`.
    pub fn non_edges_at(&self, s: NodeId) -> Vec<Edge> {
        let mut out = Vec::new();
        for v in 0..self.n {
            if v != s && !self.has_edge(s, v) {
                out.push(Edge::new(s, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn edge_normalizes_order() {
        assert_eq!(Edge::new(5, 2), Edge { u: 2, v: 5 });
        assert_eq!(Edge::new(2, 5), Edge { u: 2, v: 5 });
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 4);
        assert_eq!(e.other(1), 4);
        assert_eq!(e.other(4), 1);
        assert!(e.touches(1) && e.touches(4) && !e.touches(2));
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree_sum(), 6);
        for i in 0..3 {
            assert_eq!(g.degree(i), 2);
        }
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 2), (1, 2)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 3, n: 3 });
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn with_edge_adds_and_ignores_duplicates() {
        let g = triangle();
        let same = g.with_edge(Edge::new(0, 1)).unwrap();
        assert_eq!(same.edge_count(), 3);
        let bigger = Graph::from_edges(4, [(0, 1)]).unwrap();
        let grown = bigger.with_edge(Edge::new(2, 3)).unwrap();
        assert_eq!(grown.edge_count(), 2);
        assert!(grown.has_edge(2, 3));
    }

    #[test]
    fn with_edge_out_of_range() {
        let g = triangle();
        assert!(g.with_edge(Edge::new(0, 9)).is_err());
    }

    #[test]
    fn without_edge_removes_and_preserves_rest() {
        let g = triangle();
        let cut = g.without_edge(Edge::new(0, 1)).unwrap();
        assert_eq!(cut.edge_count(), 2);
        assert!(!cut.has_edge(0, 1));
        assert!(cut.has_edge(1, 2) && cut.has_edge(0, 2));
        assert_eq!(cut.node_count(), 3);
        // Round-trip: adding it back reproduces the original.
        assert_eq!(cut.with_edge(Edge::new(0, 1)).unwrap(), g);
    }

    #[test]
    fn without_edge_rejects_missing_and_out_of_range() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(
            g.without_edge(Edge::new(0, 2)).unwrap_err(),
            GraphError::EdgeNotFound { u: 0, v: 2 }
        );
        assert_eq!(
            g.without_edge(Edge::new(0, 9)).unwrap_err(),
            GraphError::EdgeNotFound { u: 0, v: 9 }
        );
    }

    #[test]
    fn without_edge_can_disconnect() {
        // A path: the middle edge is a bridge; removal is allowed here,
        // connectivity policy lives upstream.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let cut = g.without_edge(Edge::new(1, 2)).unwrap();
        assert_eq!(cut.edge_count(), 2);
        assert!(!crate::traversal::is_connected(&cut));
    }

    #[test]
    fn with_edge_splice_equals_the_sorting_rebuild() {
        use crate::fingerprint;
        use crate::generators::{barabasi_albert, line, star};
        for g in [line(9), star(9), barabasi_albert(60, 2, 4)] {
            let n = g.node_count();
            for e in g.non_edges() {
                let spliced = g.with_edge(e).unwrap();
                let rebuilt = g.with_edges(&[e]).unwrap();
                assert_eq!(spliced, rebuilt, "with_edge {e:?}");
                assert_eq!(fingerprint(&spliced), fingerprint(&rebuilt), "with_edge {e:?}");
                assert_eq!(spliced.without_edge(e).unwrap(), g, "round trip {e:?}");
                let reversed = Edge { u: e.v, v: e.u };
                assert_eq!(g.with_edge(reversed).unwrap(), spliced, "reversed {e:?}");
            }
            for &e in g.edges() {
                assert_eq!(g.with_edge(e).unwrap(), g, "present edge {e:?}");
            }
            for out in [Edge { u: 0, v: n }, Edge { u: n + 3, v: 1 }] {
                assert_eq!(
                    g.with_edge(out).unwrap_err(),
                    GraphError::NodeOutOfRange { node: out.u.max(out.v), n }
                );
            }
        }
    }

    #[test]
    fn non_edges_of_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let ne = g.non_edges();
        assert_eq!(ne, vec![Edge::new(0, 2), Edge::new(0, 3), Edge::new(1, 3)]);
    }

    #[test]
    fn non_edges_at_source() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.non_edges_at(0), vec![Edge::new(0, 2), Edge::new(0, 3)]);
        assert_eq!(g.non_edges_at(1), vec![Edge::new(1, 3)]);
    }

    #[test]
    fn average_degree_and_empty() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.average_degree(), 0.0);
        let t = triangle();
        assert!((t.average_degree() - 2.0).abs() < 1e-12);
    }
}
