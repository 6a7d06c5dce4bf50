//! Compressed sparse row graph representation.

use std::fmt;

/// A vertex identifier. The paper uses 4-byte keys; vertex IDs double as
/// stream keys.
pub type VertexId = u32;

/// Simulated byte addresses of the three CSR arrays, loaded into the graph
/// format registers (`GFR0`/`GFR1`/`GFR2`) by `S_LD_GFR`.
///
/// The three arrays live in disjoint virtual regions so cache-model
/// addresses never alias across arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphLayout {
    /// Base address of the vertex (index) array; entry `v` is 8 bytes
    /// (a 64-bit offset into the edge array).
    pub index_base: u64,
    /// Base address of the edge array; entry `i` is a 4-byte vertex ID.
    pub edge_base: u64,
    /// Base address of the CSR-offset array; entry `v` is 4 bytes.
    pub offset_base: u64,
}

impl Default for GraphLayout {
    fn default() -> Self {
        GraphLayout { index_base: 0x1000_0000, edge_base: 0x2000_0000, offset_base: 0x6000_0000 }
    }
}

/// An undirected graph in CSR form with sorted, deduplicated neighbor
/// lists and the paper's auxiliary CSR-offset array.
///
/// # Example
///
/// ```
/// use sc_graph::CsrGraph;
///
/// // A triangle plus a pendant vertex.
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert_eq!(g.degree(3), 1);
/// // csr_offset(2) indexes the first neighbor greater than 2 — here `3`.
/// assert_eq!(g.csr_offset(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` bounds `v`'s neighbor list in `edges`.
    offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists.
    edges: Vec<VertexId>,
    /// Per-vertex offset (within the neighbor list) of the smallest
    /// neighbor strictly greater than the vertex itself (paper Section 3.2).
    csr_offsets: Vec<u32>,
    layout: GraphLayout,
}

impl CsrGraph {
    /// Build from an undirected edge list. Self-loops are dropped,
    /// duplicate edges collapse, and both directions are materialized.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        // Count each vertex's entries, then fill one flat array through
        // the prefix sum.
        let mut start = vec![0usize; num_vertices + 1];
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u},{v}) out of range for {num_vertices} vertices"
            );
            if u != v {
                start[u as usize + 1] += 1;
                start[v as usize + 1] += 1;
            }
        }
        for v in 0..num_vertices {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut flat = vec![0; start[num_vertices]];
        for &(u, v) in edges {
            if u != v {
                flat[next[u as usize]] = v;
                next[u as usize] += 1;
                flat[next[v as usize]] = u;
                next[v as usize] += 1;
            }
        }
        Self::from_segments(flat, &start)
    }

    /// Build from pre-computed adjacency lists (sorted and deduplicated
    /// internally).
    pub fn from_adjacency(adj: Vec<Vec<VertexId>>) -> Self {
        let mut start = Vec::with_capacity(adj.len() + 1);
        start.push(0);
        for list in &adj {
            start.push(start[start.len() - 1] + list.len());
        }
        Self::from_segments(adj.concat(), &start)
    }

    /// Sort and deduplicate each vertex's segment `flat[start[v]..start[v
    /// + 1]]`, closing the gaps the duplicates leave.
    fn from_segments(mut flat: Vec<VertexId>, start: &[usize]) -> Self {
        let n = start.len() - 1;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut csr_offsets = Vec::with_capacity(n);
        offsets.push(0u64);
        let mut len = 0;
        for (v, w) in start.windows(2).enumerate() {
            flat[w[0]..w[1]].sort_unstable();
            // `len <= i` throughout, so each write lands on a slot already
            // read.
            let first = len;
            for i in w[0]..w[1] {
                if len == first || flat[len - 1] != flat[i] {
                    flat[len] = flat[i];
                    len += 1;
                }
            }
            // Position of first neighbor > v (for symmetry breaking /
            // nested intersection bounds).
            let split = flat[first..len].partition_point(|&u| u <= v as VertexId);
            csr_offsets.push(split as u32);
            offsets.push(len as u64);
        }
        flat.truncate(len);
        CsrGraph { offsets, edges: flat, csr_offsets, layout: GraphLayout::default() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *directed* edge entries (twice the undirected edge count).
    pub fn num_edge_entries(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// The sorted neighbor list of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Average degree (directed entries / vertices = 2E/V).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edge_entries() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Index (within `v`'s neighbor list) of the first neighbor strictly
    /// greater than `v` — the content of the paper's CSR-offset array.
    pub fn csr_offset(&self, v: VertexId) -> u32 {
        self.csr_offsets[v as usize]
    }

    /// The neighbors of `v` that are strictly smaller than `v` (the
    /// symmetry-breaking prefix that nested intersection consumes).
    pub fn neighbors_below(&self, v: VertexId) -> &[VertexId] {
        let list = self.neighbors(v);
        // csr_offset counts neighbors <= v, but self-loops are excluded at
        // construction so the prefix is exactly "neighbors < v".
        &list[..self.csr_offset(v) as usize]
    }

    /// Does the graph contain edge (u, v)?
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The simulated memory layout of the three CSR arrays.
    pub fn layout(&self) -> &GraphLayout {
        &self.layout
    }

    /// Override the simulated memory layout.
    pub fn set_layout(&mut self, layout: GraphLayout) {
        self.layout = layout;
    }

    /// Byte address of the edge-array entry at global index `i` (used for
    /// stream key addresses: a neighbor list is a contiguous key stream).
    pub fn edge_entry_addr(&self, i: u64) -> u64 {
        self.layout.edge_base + i * 4
    }

    /// Byte address of the start of `v`'s neighbor list.
    pub fn edge_list_addr(&self, v: VertexId) -> u64 {
        self.edge_entry_addr(self.offsets[v as usize])
    }

    /// Byte address of the vertex-array entry for `v`.
    pub fn index_entry_addr(&self, v: VertexId) -> u64 {
        self.layout.index_base + v as u64 * 8
    }

    /// Byte address of the CSR-offset entry for `v`.
    pub fn offset_entry_addr(&self, v: VertexId) -> u64 {
        self.layout.offset_base + v as u64 * 4
    }

    /// Iterate all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Total triangles in the graph (reference implementation for tests:
    /// counts each triangle once).
    pub fn count_triangles_reference(&self) -> u64 {
        let mut count = 0u64;
        for v in self.vertices() {
            let below = self.neighbors_below(v);
            for (i, &u) in below.iter().enumerate() {
                for &w in &below[i + 1..] {
                    if self.has_edge(u, w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

impl fmt::Display for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph(|V|={}, |E|={}, avgD={:.2}, maxD={})",
            self.num_vertices(),
            self.num_edges(),
            self.avg_degree() / 2.0,
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_edge_entries(), 8);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn csr_offset_partitions_list() {
        let g = triangle_plus_tail();
        // v=0: neighbors [1,2]; none <= 0 -> offset 0.
        assert_eq!(g.csr_offset(0), 0);
        // v=1: neighbors [0,2]; one (0) <= 1 -> offset 1.
        assert_eq!(g.csr_offset(1), 1);
        // v=2: neighbors [0,1,3]; two <= 2 -> offset 2.
        assert_eq!(g.csr_offset(2), 2);
        assert_eq!(g.neighbors_below(2), &[0, 1]);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn triangle_reference_count() {
        let g = triangle_plus_tail();
        assert_eq!(g.count_triangles_reference(), 1);
        // K4 has 4 triangles.
        let k4 = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(k4.count_triangles_reference(), 4);
    }

    #[test]
    fn addresses_are_disjoint_regions() {
        let g = triangle_plus_tail();
        let l = g.layout();
        assert!(g.index_entry_addr(3) < l.edge_base);
        assert!(g.edge_entry_addr(7) < l.offset_base);
        assert_eq!(g.edge_list_addr(1), l.edge_base + 2 * 4);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[VertexId]);
    }
}
