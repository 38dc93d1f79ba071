//! Immutable undirected graphs in compressed sparse row (CSR) form.

use crate::NodeId;

/// Error building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint.
        endpoint: usize,
        /// The number of vertices the graph was declared with.
        n: usize,
    },
    /// An edge connected a vertex to itself; the radio model has no self-loops.
    SelfLoop(usize),
    /// The graph must have at least one vertex.
    Empty,
    /// Raw CSR arrays violated a structural invariant ([`Graph::from_csr_parts`]).
    InvalidCsr(&'static str),
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range for n = {n}")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at vertex {v}"),
            GraphError::Empty => write!(f, "graph must have at least one vertex"),
            GraphError::InvalidCsr(reason) => write!(f, "invalid CSR arrays: {reason}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, undirected, simple graph stored in CSR form.
///
/// Vertices are `0..n`. Parallel edges are deduplicated at construction.
/// Neighbor lists are sorted, so membership tests are `O(log deg)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Edges may appear in either orientation and duplicates are removed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, an endpoint is out of range, or an
    /// edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: u, n });
            }
            if v >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Graph {
            n,
            offsets,
            neighbors,
        })
    }

    /// Rebuilds a graph from raw CSR arrays — the fast path for loaders
    /// that already hold the exact `offsets`/`neighbors` layout
    /// [`Graph::from_edges`] would produce (e.g. a binary on-disk cache).
    ///
    /// Every structural invariant the engines rely on is re-validated in
    /// `O(n + m)`: `offsets` has length `n + 1`, starts at 0, is monotone,
    /// and ends at `neighbors.len()`; every row is strictly ascending (so
    /// sorted *and* duplicate-free), in range, and loop-free; and the total
    /// adjacency length is even (an undirected graph stores each edge
    /// twice). Symmetry itself is not rechecked — a corrupted input that
    /// passes every check above but breaks symmetry is not representable
    /// by `from_edges` callers and is the caller's integrity problem
    /// (on-disk caches pair this with a content checksum).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the violated invariant,
    /// or [`GraphError::Empty`] when `n == 0`.
    pub fn from_csr_parts(
        n: usize,
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
    ) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if offsets.len() != n + 1 {
            return Err(GraphError::InvalidCsr("offsets length is not n + 1"));
        }
        if offsets[0] != 0 {
            return Err(GraphError::InvalidCsr("offsets must start at 0"));
        }
        if offsets[n] as usize != neighbors.len() {
            return Err(GraphError::InvalidCsr(
                "offsets must end at neighbors.len()",
            ));
        }
        if neighbors.len() % 2 != 0 {
            return Err(GraphError::InvalidCsr("odd adjacency length"));
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if lo > hi {
                return Err(GraphError::InvalidCsr("offsets not monotone"));
            }
            let row = &neighbors[lo..hi];
            for (i, &u) in row.iter().enumerate() {
                if u as usize >= n {
                    return Err(GraphError::InvalidCsr("neighbor id out of range"));
                }
                if u as usize == v {
                    return Err(GraphError::InvalidCsr("self-loop in row"));
                }
                if i > 0 && row[i - 1] >= u {
                    return Err(GraphError::InvalidCsr("row not strictly ascending"));
                }
            }
        }
        Ok(Graph {
            n,
            offsets,
            neighbors,
        })
    }

    /// [`Graph::from_csr_parts`] minus the `O(n + m)` per-row invariant
    /// sweep: only the array *shapes* are checked (lengths, first/last
    /// offset, even adjacency). For callers that can prove the arrays
    /// are a byte-exact copy of a previously validated graph — e.g. a
    /// binary cache entry whose checksum just verified — where the full
    /// re-check would dominate the load. Still safe on bad input (every
    /// query indexes with bounds checks), but a row-level violation the
    /// shape checks cannot see yields panics or wrong neighbor sets
    /// downstream instead of an error here; when in doubt, use
    /// [`Graph::from_csr_parts`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] on a shape mismatch, or
    /// [`GraphError::Empty`] when `n == 0`.
    pub fn from_csr_parts_trusted(
        n: usize,
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
    ) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if offsets.len() != n + 1 {
            return Err(GraphError::InvalidCsr("offsets length is not n + 1"));
        }
        if offsets[0] != 0 {
            return Err(GraphError::InvalidCsr("offsets must start at 0"));
        }
        if offsets[n] as usize != neighbors.len() {
            return Err(GraphError::InvalidCsr(
                "offsets must end at neighbors.len()",
            ));
        }
        if neighbors.len() % 2 != 0 {
            return Err(GraphError::InvalidCsr("odd adjacency length"));
        }
        Ok(Graph {
            n,
            offsets,
            neighbors,
        })
    }

    /// The number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of undirected edges.
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_row(v).iter().map(|&u| u as NodeId)
    }

    /// The CSR row of `v`: its neighbors as a sorted `&[u32]` slice.
    ///
    /// This is the collision resolver's entry point — it scans the row
    /// directly instead of driving the [`neighbors`] iterator, and the
    /// sorted order means the first transmitting neighbor found is the
    /// lowest-id one.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    ///
    /// [`neighbors`]: Graph::neighbors
    #[inline]
    pub fn neighbor_row(&self, v: NodeId) -> &[u32] {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The CSR degree-prefix array: `offsets()[v]..offsets()[v + 1]` bounds
    /// `v`'s row inside [`neighbor_data`]. Length `n + 1`.
    ///
    /// [`neighbor_data`]: Graph::neighbor_data
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat CSR neighbor array all rows are slices of (length `2m`).
    #[inline]
    pub fn neighbor_data(&self) -> &[u32] {
        &self.neighbors
    }

    /// The degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.neighbors[lo..hi].binary_search(&(v as u32)).is_ok()
    }

    /// BFS distances from `src`; unreachable vertices get `u32::MAX`.
    pub fn bfs(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u];
            for w in self.neighbors(u) {
                if dist[w] == u32::MAX {
                    dist[w] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// The eccentricity of `v` (max distance to any vertex); `None` if the
    /// graph is disconnected.
    pub fn eccentricity(&self, v: NodeId) -> Option<u32> {
        let dist = self.bfs(v);
        let mx = *dist.iter().max()?;
        if mx == u32::MAX {
            None
        } else {
            Some(mx)
        }
    }

    /// The exact diameter, by running BFS from every vertex.
    ///
    /// `O(n (n + m))` — intended for test- and bench-scale graphs. Returns
    /// `None` if disconnected.
    pub fn diameter_exact(&self) -> Option<u32> {
        let mut d = 0u32;
        for v in 0..self.n {
            d = d.max(self.eccentricity(v)?);
        }
        Some(d)
    }

    /// A fast diameter *lower bound* via double-sweep BFS (exact on trees).
    ///
    /// Returns `None` if disconnected.
    pub fn diameter_double_sweep(&self) -> Option<u32> {
        let d0 = self.bfs(0);
        let (far, &mx) = d0
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .expect("graph is nonempty");
        if mx == u32::MAX {
            return None;
        }
        self.eccentricity(far)
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::EndpointOutOfRange { endpoint: 2, n: 2 })
        ));
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn dedups_parallel_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        let nb: Vec<_> = g.neighbors(2).collect();
        assert_eq!(nb, vec![0, 1, 3]);
    }

    #[test]
    fn path_distances() {
        let g = path(5);
        assert_eq!(g.bfs(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.diameter_exact(), Some(4));
        assert_eq!(g.diameter_double_sweep(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter_exact(), None);
        assert_eq!(g.eccentricity(0), None);
    }

    #[test]
    fn neighbor_row_matches_iterator_and_offsets() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 3), (2, 4), (1, 3)]).unwrap();
        for v in 0..5 {
            let row: Vec<NodeId> = g.neighbor_row(v).iter().map(|&u| u as NodeId).collect();
            let it: Vec<NodeId> = g.neighbors(v).collect();
            assert_eq!(row, it, "row/iterator mismatch at {v}");
            let lo = g.offsets()[v] as usize;
            let hi = g.offsets()[v + 1] as usize;
            assert_eq!(&g.neighbor_data()[lo..hi], g.neighbor_row(v));
            assert_eq!(hi - lo, g.degree(v));
        }
        assert_eq!(g.offsets().len(), 6);
        assert_eq!(g.neighbor_data().len(), 2 * g.m());
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn from_csr_parts_round_trips_from_edges() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 3), (2, 4), (1, 3), (4, 5)]).unwrap();
        let rebuilt =
            Graph::from_csr_parts(g.n(), g.offsets().to_vec(), g.neighbor_data().to_vec()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_csr_parts_rejects_broken_invariants() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (offs, nbrs) = (g.offsets().to_vec(), g.neighbor_data().to_vec());
        assert_eq!(
            Graph::from_csr_parts(0, vec![0], vec![]),
            Err(GraphError::Empty)
        );
        // Truncated offsets.
        assert!(matches!(
            Graph::from_csr_parts(4, offs[..4].to_vec(), nbrs.clone()),
            Err(GraphError::InvalidCsr(_))
        ));
        // Offsets not ending at the adjacency length.
        let mut short = nbrs.clone();
        short.pop();
        assert!(matches!(
            Graph::from_csr_parts(4, offs.clone(), short),
            Err(GraphError::InvalidCsr(_))
        ));
        // Out-of-range neighbor id.
        let mut oor = nbrs.clone();
        oor[0] = 9;
        assert!(matches!(
            Graph::from_csr_parts(4, offs.clone(), oor),
            Err(GraphError::InvalidCsr(_))
        ));
        // A self-loop in a row.
        let mut looped = nbrs.clone();
        looped[0] = 0;
        assert!(matches!(
            Graph::from_csr_parts(4, offs.clone(), looped),
            Err(GraphError::InvalidCsr(_))
        ));
        // An unsorted (here: duplicated) row.
        let dup = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let mut bad = dup.neighbor_data().to_vec();
        bad[1] = bad[0];
        assert!(matches!(
            Graph::from_csr_parts(3, dup.offsets().to_vec(), bad),
            Err(GraphError::InvalidCsr(_))
        ));
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.diameter_exact(), Some(0));
    }
}
