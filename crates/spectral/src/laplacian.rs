//! Graph Laplacians of computation graphs (paper §4.2).
//!
//! For the spectral bound the directed computation graph `G` is transformed
//! into a weighted undirected graph `G̃`: every directed edge `(u, v)`
//! contributes an undirected edge `{u, v}` of weight `1/d_out(u)`. With
//! `L̃ = D̃ − Ã`, the quadratic form over an indicator vector `x` of a
//! vertex set `S` prices its boundary: `xᵀL̃x = Σ_{(u,v) ∈ ∂S} 1/d_out(u)`
//! (Equation 3). The unnormalized Laplacian `L` prices `|∂S|` instead and
//! feeds Theorem 5.

use graphio_graph::CompGraph;
use graphio_linalg::CsrMatrix;

/// Builds the out-degree-normalized Laplacian `L̃` of Theorem 4.
///
/// Parallel edges accumulate weight, exactly as repeated operands should:
/// `v = u * u` contributes `2/d_out(u)` between `u` and `v`.
pub fn normalized_laplacian(g: &CompGraph) -> CsrMatrix {
    laplacian_with(g, |u| 1.0 / g.out_degree(u) as f64)
}

/// Builds the unnormalized Laplacian `L` of Theorem 5 (every directed edge
/// becomes a unit-weight undirected edge).
pub fn unnormalized_laplacian(g: &CompGraph) -> CsrMatrix {
    laplacian_with(g, |_u| 1.0)
}

/// Shared Laplacian assembly, row by row from the adjacency, with each
/// edge weighted by its source vertex. Row `r` gets the entries of the
/// edge-by-edge sum (edges in ascending source order) in that sum's
/// order, so duplicates add up as they always have: parents below `r`,
/// `r`'s children, parents above `r`; each edge `(other, −w)`, `(r, w)`.
fn laplacian_with(g: &CompGraph, weight: impl Fn(usize) -> f64) -> CsrMatrix {
    let mut parents = Vec::new();
    CsrMatrix::from_rows(g.n(), |r, row| {
        parents.clear();
        parents.extend_from_slice(g.parents(r));
        parents.sort_unstable();
        let (below, above) = parents.split_at(parents.partition_point(|&u| (u as usize) < r));
        let parent = |&u: &u32| (u, weight(u as usize));
        let children = g.children(r).iter().map(|&v| (v, weight(r)));
        let edges = below.iter().map(parent).chain(children);
        for (other, w) in edges.chain(above.iter().map(parent)) {
            row.extend([(other, -w), (r as u32, w)]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphio_graph::generators::{bhk_hypercube, fft_butterfly, inner_product};
    use graphio_linalg::eigenvalues_symmetric;

    #[test]
    fn normalized_weights_use_out_degree() {
        // Figure 1 inner product: every non-sink has out-degree 1, so L̃
        // equals L.
        let g = inner_product(2);
        let lt = normalized_laplacian(&g);
        let l = unnormalized_laplacian(&g);
        assert_eq!(lt.dim(), 7);
        let (lt, l) = (lt.to_dense(), l.to_dense());
        for i in 0..7 {
            for j in 0..7 {
                assert!((lt[(i, j)] - l[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn laplacians_are_symmetric_psd_with_zero_row_sums() {
        for g in [fft_butterfly(3), bhk_hypercube(4), inner_product(3)] {
            for lap in [normalized_laplacian(&g), unnormalized_laplacian(&g)] {
                assert!(lap.to_dense().is_symmetric(1e-12));
                // Row sums vanish (constant vector in the kernel).
                let ones = vec![1.0; lap.dim()];
                let mut out = vec![0.0; lap.dim()];
                lap.matvec(&ones, &mut out);
                for v in out {
                    assert!(v.abs() < 1e-12);
                }
                let vals = eigenvalues_symmetric(&lap.to_dense()).unwrap();
                assert!(vals[0] > -1e-9, "PSD violated: {}", vals[0]);
            }
        }
    }

    #[test]
    fn quadratic_form_prices_boundaries() {
        // Butterfly level cut: S = level 0 of B_2 (the 4 inputs). Every
        // input has out-degree 2, so each of the 8 boundary edges costs
        // 1/2 under L̃ and 1 under L.
        let g = fft_butterfly(2);
        let lt = normalized_laplacian(&g);
        let l = unnormalized_laplacian(&g);
        let mut x = vec![0.0; g.n()];
        for xi in x.iter_mut().take(4) {
            *xi = 1.0;
        }
        assert!((lt.to_dense().quadratic_form(&x) - 4.0).abs() < 1e-12);
        assert!((l.to_dense().quadratic_form(&x) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn hypercube_unnormalized_matches_known_spectrum() {
        // Q_3 Laplacian eigenvalues: 2i with multiplicity C(3, i).
        let g = bhk_hypercube(3);
        let l = unnormalized_laplacian(&g);
        let vals = eigenvalues_symmetric(&l.to_dense()).unwrap();
        let expect = [0.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 6.0];
        for (v, x) in vals.iter().zip(expect.iter()) {
            assert!((v - x).abs() < 1e-9, "{v} vs {x}");
        }
    }

    #[test]
    fn parallel_edges_accumulate() {
        use graphio_graph::{GraphBuilder, OpKind};
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(OpKind::Input);
        let sq = b.add_vertex(OpKind::Mul);
        b.add_edge(x, sq);
        b.add_edge(x, sq);
        let g = b.build().unwrap();
        let lt = normalized_laplacian(&g).to_dense();
        // d_out(x) = 2, two parallel edges of weight 1/2 => off-diagonal -1.
        assert!((lt[(0, 1)] + 1.0).abs() < 1e-15);
        assert!((lt[(0, 0)] - 1.0).abs() < 1e-15);
    }
}
