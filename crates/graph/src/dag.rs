//! The immutable computation-graph data structure and its builder.

use crate::ops::OpKind;
use std::fmt;

/// Errors produced while constructing or deserializing a computation graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a vertex id `>= n`.
    InvalidVertex {
        /// The offending vertex id.
        id: u32,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// The edge set contains a directed cycle (computation graphs must be
    /// acyclic); `remaining` vertices could not be topologically ordered.
    Cycle {
        /// Number of vertices involved in or downstream of cycles.
        remaining: usize,
    },
    /// A self-loop `v → v` was added.
    SelfLoop {
        /// The vertex with the self-loop.
        id: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidVertex { id, n } => {
                write!(f, "edge references vertex {id} but graph has {n} vertices")
            }
            GraphError::Cycle { remaining } => {
                write!(
                    f,
                    "graph contains a cycle ({remaining} vertices unorderable)"
                )
            }
            GraphError::SelfLoop { id } => write!(f, "self-loop on vertex {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable directed acyclic computation graph.
///
/// Stored as CSR in both directions so parents and children of any vertex,
/// and all four degree queries, are O(1)/O(deg). Vertex ids are dense
/// `0..n`. Parallel edges are allowed (e.g. `x * x` consumes the same
/// operand twice) and are preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct CompGraph {
    ops: Vec<OpKind>,
    /// Children: `fwd_idx[fwd_ptr[v]..fwd_ptr[v+1]]`.
    fwd_ptr: Vec<usize>,
    fwd_idx: Vec<u32>,
    /// Parents: `rev_idx[rev_ptr[v]..rev_ptr[v+1]]`.
    rev_ptr: Vec<usize>,
    rev_idx: Vec<u32>,
}

impl CompGraph {
    /// Number of vertices (the paper's `n`).
    pub fn n(&self) -> usize {
        self.ops.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.fwd_idx.len()
    }

    /// Operation computed by vertex `v`.
    pub fn op(&self, v: usize) -> OpKind {
        self.ops[v]
    }

    /// All operations, indexed by vertex.
    pub fn ops(&self) -> &[OpKind] {
        &self.ops
    }

    /// Children of `v` (vertices consuming `v`'s value).
    pub fn children(&self, v: usize) -> &[u32] {
        &self.fwd_idx[self.fwd_ptr[v]..self.fwd_ptr[v + 1]]
    }

    /// Parents of `v` (operands of `v`).
    pub fn parents(&self, v: usize) -> &[u32] {
        &self.rev_idx[self.rev_ptr[v]..self.rev_ptr[v + 1]]
    }

    /// Out-degree `d_out(v)`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.fwd_ptr[v + 1] - self.fwd_ptr[v]
    }

    /// In-degree `d_in(v)`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.rev_ptr[v + 1] - self.rev_ptr[v]
    }

    /// Total (undirected) degree `d(v) = d_in(v) + d_out(v)`.
    pub fn degree(&self, v: usize) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Maximum out-degree over all vertices (0 for the empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.n()).map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// Maximum in-degree over all vertices (0 for the empty graph).
    pub fn max_in_degree(&self) -> usize {
        (0..self.n()).map(|v| self.in_degree(v)).max().unwrap_or(0)
    }

    /// Source vertices (in-degree 0) — the computation's inputs.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n()).filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Sink vertices (out-degree 0) — the computation's outputs.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n()).filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Iterates over all directed edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n()).flat_map(move |u| self.children(u).iter().map(move |&v| (u, v as usize)))
    }

    /// Checks that `order` is a permutation of `0..n` evaluating every
    /// vertex after all of its parents.
    pub fn is_topological(&self, order: &[usize]) -> bool {
        if order.len() != self.n() {
            return false;
        }
        let mut position = vec![usize::MAX; self.n()];
        for (pos, &v) in order.iter().enumerate() {
            if v >= self.n() || position[v] != usize::MAX {
                return false;
            }
            position[v] = pos;
        }
        self.edges().all(|(u, v)| position[u] < position[v])
    }

    /// Vertices reachable from `v` by directed paths, **excluding** `v`.
    pub fn descendants(&self, v: usize) -> Vec<usize> {
        self.reach(v, false)
    }

    /// Vertices that reach `v` by directed paths, **excluding** `v`.
    pub fn ancestors(&self, v: usize) -> Vec<usize> {
        self.reach(v, true)
    }

    fn reach(&self, v: usize, backwards: bool) -> Vec<usize> {
        let mut seen = vec![false; self.n()];
        let mut stack = vec![v];
        seen[v] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            let next = if backwards {
                self.parents(u)
            } else {
                self.children(u)
            };
            for &w in next {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    out.push(w);
                    stack.push(w);
                }
            }
        }
        out
    }

    /// Approximate heap footprint of this graph in bytes — both CSR
    /// directions plus the op table. Used by the service's session cache
    /// for byte-budget eviction; exact allocator overhead is ignored.
    pub fn approx_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<OpKind>()
            + (self.fwd_ptr.len() + self.rev_ptr.len()) * std::mem::size_of::<usize>()
            + (self.fwd_idx.len() + self.rev_idx.len()) * std::mem::size_of::<u32>()
    }

    /// The forward CSR arrays `(fwd_ptr, fwd_idx)`: vertex `v`'s children
    /// are `fwd_idx[fwd_ptr[v]..fwd_ptr[v + 1]]`. Together with the op
    /// table they determine the labelled graph exactly (the reverse CSR is
    /// derived from them), which is what the fingerprint memo's content
    /// key hashes.
    pub(crate) fn children_csr(&self) -> (&[usize], &[u32]) {
        (&self.fwd_ptr, &self.fwd_idx)
    }

    /// Portable edge-list representation (see [`crate::json`] for the JSON
    /// form).
    pub fn to_edge_list(&self) -> EdgeListGraph {
        EdgeListGraph {
            ops: self.ops.clone(),
            edges: self.edges().map(|(u, v)| (u as u32, v as u32)).collect(),
        }
    }
}

/// A portable, serializable edge-list form of a [`CompGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeListGraph {
    /// Operation per vertex; the length defines the vertex count.
    pub ops: Vec<OpKind>,
    /// Directed edges `(from, to)`.
    pub edges: Vec<(u32, u32)>,
}

impl TryFrom<EdgeListGraph> for CompGraph {
    type Error = GraphError;

    fn try_from(el: EdgeListGraph) -> Result<CompGraph, GraphError> {
        GraphBuilder {
            ops: el.ops,
            edges: el.edges,
        }
        .build()
    }
}

/// Incremental builder for [`CompGraph`], validating on [`GraphBuilder::build`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    ops: Vec<OpKind>,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Builder preallocating space for `vertices` / `edges`.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            ops: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a vertex computing `op` and returns its id.
    pub fn add_vertex(&mut self, op: OpKind) -> u32 {
        let id = self.ops.len() as u32;
        self.ops.push(op);
        id
    }

    /// Adds the directed edge `from → to` (operand relation).
    pub fn add_edge(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }

    /// Number of vertices added so far.
    pub fn n(&self) -> usize {
        self.ops.len()
    }

    /// Validates (bounds, self-loops, acyclicity) and freezes the graph.
    ///
    /// # Errors
    /// [`GraphError::InvalidVertex`], [`GraphError::SelfLoop`] or
    /// [`GraphError::Cycle`].
    pub fn build(self) -> Result<CompGraph, GraphError> {
        let n = self.ops.len();
        for &(u, v) in &self.edges {
            if u as usize >= n {
                return Err(GraphError::InvalidVertex { id: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::InvalidVertex { id: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { id: u });
            }
        }
        // CSR in both directions via counting sort.
        let mut fwd_ptr = vec![0usize; n + 1];
        let mut rev_ptr = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            fwd_ptr[u as usize + 1] += 1;
            rev_ptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            fwd_ptr[i + 1] += fwd_ptr[i];
            rev_ptr[i + 1] += rev_ptr[i];
        }
        let m = self.edges.len();
        let mut fwd_idx = vec![0u32; m];
        let mut rev_idx = vec![0u32; m];
        let mut fcur = fwd_ptr.clone();
        let mut rcur = rev_ptr.clone();
        for &(u, v) in &self.edges {
            fwd_idx[fcur[u as usize]] = v;
            fcur[u as usize] += 1;
            rev_idx[rcur[v as usize]] = u;
            rcur[v as usize] += 1;
        }
        let g = CompGraph {
            ops: self.ops,
            fwd_ptr,
            fwd_idx,
            rev_ptr,
            rev_idx,
        };
        // Kahn's algorithm to certify acyclicity.
        let mut indeg: Vec<usize> = (0..n).map(|v| g.in_degree(v)).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut visited = 0usize;
        while let Some(v) = queue.pop() {
            visited += 1;
            for &c in g.children(v) {
                indeg[c as usize] -= 1;
                if indeg[c as usize] == 0 {
                    queue.push(c as usize);
                }
            }
        }
        if visited != n {
            return Err(GraphError::Cycle {
                remaining: n - visited,
            });
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1: inner product of two 2-vectors.
    fn inner_product_graph() -> CompGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<u32> = (0..4).map(|_| b.add_vertex(OpKind::Input)).collect();
        let m1 = b.add_vertex(OpKind::Mul);
        let m2 = b.add_vertex(OpKind::Mul);
        let s = b.add_vertex(OpKind::Add);
        b.add_edge(v[0], m1);
        b.add_edge(v[1], m1);
        b.add_edge(v[2], m2);
        b.add_edge(v[3], m2);
        b.add_edge(m1, s);
        b.add_edge(m2, s);
        b.build().unwrap()
    }

    #[test]
    fn figure1_inner_product_shape() {
        let g = inner_product_graph();
        assert_eq!(g.n(), 7);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.sources(), vec![0, 1, 2, 3]);
        assert_eq!(g.sinks(), vec![6]);
        assert_eq!(g.in_degree(6), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.max_out_degree(), 1);
        assert_eq!(g.parents(4), &[0, 1]);
        assert_eq!(g.children(4), &[6]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(OpKind::Add);
        let c = b.add_vertex(OpKind::Add);
        b.add_edge(a, c);
        b.add_edge(c, a);
        assert_eq!(b.build().unwrap_err(), GraphError::Cycle { remaining: 2 });
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(OpKind::Add);
        b.add_edge(a, a);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop { id: 0 });
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut b = GraphBuilder::new();
        b.add_vertex(OpKind::Add);
        b.add_edge(0, 5);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::InvalidVertex { id: 5, n: 1 }
        );
    }

    #[test]
    fn parallel_edges_are_preserved() {
        // x * x: the square consumes the same operand twice.
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let sq = b.add_vertex(OpKind::Mul);
        b.add_edge(x, sq);
        b.add_edge(x, sq);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.parents(1), &[0, 0]);
    }

    #[test]
    fn is_topological_accepts_and_rejects() {
        let g = inner_product_graph();
        assert!(g.is_topological(&[0, 1, 2, 3, 4, 5, 6]));
        assert!(g.is_topological(&[3, 2, 5, 0, 1, 4, 6]));
        // Sum before its operand.
        assert!(!g.is_topological(&[0, 1, 2, 3, 6, 4, 5]));
        // Not a permutation.
        assert!(!g.is_topological(&[0, 0, 2, 3, 4, 5, 6]));
        // Wrong length.
        assert!(!g.is_topological(&[0, 1, 2]));
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = inner_product_graph();
        let mut anc = g.ancestors(6);
        anc.sort_unstable();
        assert_eq!(anc, vec![0, 1, 2, 3, 4, 5]);
        let mut desc = g.descendants(0);
        desc.sort_unstable();
        assert_eq!(desc, vec![4, 6]);
        assert!(g.descendants(6).is_empty());
        assert!(g.ancestors(0).is_empty());
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = inner_product_graph();
        let el = g.to_edge_list();
        let back = CompGraph::try_from(el.clone()).unwrap();
        assert_eq!(g.n(), back.n());
        assert_eq!(g.num_edges(), back.num_edges());
        for v in 0..g.n() {
            assert_eq!(g.parents(v), back.parents(v));
            assert_eq!(g.op(v), back.op(v));
        }
        // And through the JSON interchange form.
        let json = el.to_json();
        let el2 = EdgeListGraph::from_json(&json).unwrap();
        assert_eq!(el, el2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_in_degree(), 0);
        assert!(g.sources().is_empty());
        assert!(g.is_topological(&[]));
    }
}
