//! Failure-injection tests: every error path a downstream user can hit
//! must surface as a typed error (never a panic or a silent wrong answer).

use graphio::graph::{EdgeListGraph, GraphError, OpKind};
use graphio::linalg::lanczos::{smallest_eigenvalues, LanczosOptions};
use graphio::linalg::{CsrMatrix, LinalgError};
use graphio::pebble::SimError;
use graphio::prelude::*;

#[test]
fn deserializing_corrupt_edge_lists_fails_typed() {
    // Edge referencing a vertex beyond ops.len().
    let el = EdgeListGraph {
        ops: vec![OpKind::Input, OpKind::Add],
        edges: vec![(0, 5)],
    };
    assert_eq!(
        CompGraph::try_from(el).unwrap_err(),
        GraphError::InvalidVertex { id: 5, n: 2 }
    );
    // Self-loop.
    let el = EdgeListGraph {
        ops: vec![OpKind::Add],
        edges: vec![(0, 0)],
    };
    assert_eq!(
        CompGraph::try_from(el).unwrap_err(),
        GraphError::SelfLoop { id: 0 }
    );
    // Cycle smuggled through the portable format.
    let el = EdgeListGraph {
        ops: vec![OpKind::Add, OpKind::Add],
        edges: vec![(0, 1), (1, 0)],
    };
    assert!(matches!(
        CompGraph::try_from(el).unwrap_err(),
        GraphError::Cycle { .. }
    ));
}

#[test]
fn lanczos_budget_exhaustion_is_reported_not_wrong() {
    // One sweep (subspace 2, which the solver raises to 16) cannot both
    // lock 6 eigenvalues of a 64-dim operator and verify them: must
    // error, never return a short/garbage spectrum.
    let g = bhk_hypercube(6);
    let lap = graphio::spectral::laplacian::normalized_laplacian(&g);
    let opts = LanczosOptions {
        subspace: 2,
        max_sweeps: 1,
        ..Default::default()
    };
    match smallest_eigenvalues(&lap, 6, &opts) {
        Err(LinalgError::NoConvergence { algorithm, .. }) => {
            assert_eq!(algorithm, "deflated Lanczos");
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
fn eigensolver_rejects_asymmetric_input() {
    use graphio::linalg::{eigenvalues_symmetric, DenseMatrix};
    let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
    assert!(matches!(
        eigenvalues_symmetric(&a),
        Err(LinalgError::NotSymmetric { .. })
    ));
}

#[test]
fn csr_rejects_out_of_range_triplets() {
    assert!(matches!(
        CsrMatrix::from_triplets(3, &[(0, 7, 1.0)]),
        Err(LinalgError::InvalidInput(_))
    ));
}

#[test]
fn simulator_surfaces_both_precondition_failures() {
    let g = naive_matmul(2);
    let order = graphio::graph::topo::natural_order(&g);
    // Too little memory for the 2-ary sums (needs 3 slots).
    assert!(matches!(
        simulate(&g, &order, 2, Policy::Lru, 0),
        Err(SimError::MemoryTooSmall { .. })
    ));
    // Reversed order.
    let mut rev = order.clone();
    rev.reverse();
    assert_eq!(
        simulate(&g, &rev, 8, Policy::Lru, 0).unwrap_err(),
        SimError::OrderNotTopological
    );
}

#[test]
fn exact_oracle_guards_its_domain() {
    use graphio::baselines::{exact_optimal_io, ExactError};
    let big = fft_butterfly(4); // 80 vertices > 26
    assert!(matches!(
        exact_optimal_io(&big, 8, 1_000_000),
        Err(ExactError::TooLarge { .. })
    ));
    let small = inner_product(2);
    assert!(matches!(
        exact_optimal_io(&small, 2, 1_000_000),
        Err(ExactError::MemoryTooSmall { .. })
    ));
    assert!(matches!(
        exact_optimal_io(&diamond_dag(4, 4), 3, 5),
        Err(ExactError::BudgetExhausted { .. })
    ));
}

#[test]
fn bound_with_h_larger_than_n_is_clamped_not_failing() {
    let g = inner_product(2); // n = 7
    let b = spectral_bound(
        &g,
        1,
        &BoundOptions {
            h: 10_000,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(b.eigenvalues.len(), 7);
}

#[test]
fn empty_graph_bounds_are_trivial_everywhere() {
    let g = GraphBuilder::new().build().unwrap();
    let b = spectral_bound(&g, 4, &BoundOptions::default()).unwrap();
    assert_eq!(b.bound, 0.0);
    let mc = convex_min_cut_bound(&g, 4, &ConvexMinCutOptions::default());
    assert_eq!(mc.bound, 0);
    let r = simulate(&g, &[], 1, Policy::Lru, 0).unwrap();
    assert_eq!(r.io(), 0);
}

#[test]
fn error_types_render_useful_messages() {
    let msgs = [
        GraphError::Cycle { remaining: 3 }.to_string(),
        SimError::MemoryTooSmall {
            vertex: 1,
            required: 4,
            memory: 2,
        }
        .to_string(),
        LinalgError::NoConvergence {
            algorithm: "x",
            iterations: 9,
        }
        .to_string(),
    ];
    for m in msgs {
        assert!(!m.is_empty());
        assert!(m.is_ascii() || m.chars().count() > 4);
    }
}
