import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalareq.errors import DisconnectedGraphError
from scalareq.graph import (WeightedGraph, build_graph, disagreement_basis,
                            laplacian_spectrum)


def random_connected_graph(n, rng):
    """Random spanning tree plus a few extra edges, weights in [0.5, 2]."""
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((j, i, float(rng.uniform(0.5, 2.0))))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if all((a, b) != (i, j) for (a, b, _) in edges):
            edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    return WeightedGraph(n, edges)


def test_weighted_graph_normalizes_edge_order():
    G = WeightedGraph(n=3, edges=((2, 0, 1.5), (1, 0, 2.0)))
    assert G.edges == ((0, 2, 1.5), (0, 1, 2.0))


def test_weighted_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(n=2, edges=((0, 0, 1.0), (0, 1, 1.0)))


def test_weighted_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)))


def test_weighted_graph_rejects_bad_weight_and_range():
    with pytest.raises(ValueError, match="weight"):
        WeightedGraph(n=2, edges=((0, 1, 0.0),))
    for w in (np.nan, np.inf):  # nan <= 0 is false: a sign test lets nan through
        with pytest.raises(ValueError, match=rf"edge \(1,2\) has weight {w}, not finite"):
            WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, w)))
    with pytest.raises(ValueError, match="outside"):
        WeightedGraph(n=2, edges=((0, 3, 1.0),))


def test_weighted_graph_disconnected_reports_component():
    with pytest.raises(DisconnectedGraphError, match=r"component of node 0 is \[0, 1\]$"):
        WeightedGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))


def test_weighted_graph_single_node():
    G = WeightedGraph(n=1)
    assert G.edges == ()
    assert np.array_equal(G.laplacian, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="need at least one node, got n=0"):
        WeightedGraph(n=0)


def test_laplacian_is_built_once_read_only_and_shared_with_the_spectrum():
    G = build_graph("cycle", 5)
    L = G.laplacian
    assert G.laplacian is L
    assert not L.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        L[0, 0] = 3.0
    assert laplacian_spectrum(G).L is L


def test_neighbors_sorted_with_weights():
    G = build_graph("cycle", 4, weight=2.0)
    assert G.neighbor_lists[0] == ((1, 2.0), (3, 2.0))
    assert G.neighbor_lists[2] == ((1, 2.0), (3, 2.0))


def test_build_graph_path_two_nodes():
    G = build_graph("path", 2)
    L = G.laplacian
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    spec = laplacian_spectrum(G)
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_build_graph_triangle_spectrum():
    spec = laplacian_spectrum(build_graph("cycle", 3))
    assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    assert spec.lambda2 == pytest.approx(3.0, abs=1e-12)
    assert spec.lambda_n == pytest.approx(3.0, abs=1e-12)


def test_build_graph_complete_equals_cycle_for_three_nodes():
    a = build_graph("complete", 3).laplacian
    b = build_graph("cycle", 3).laplacian
    assert np.array_equal(a, b)


def test_build_graph_rejects_two_node_cycle():
    with pytest.raises(ValueError, match="cycle"):
        build_graph("cycle", 2)


def test_build_graph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_graph("path", 1)
    with pytest.raises(ValueError):
        build_graph("path", 4, weight=-1.0)
    with pytest.raises(ValueError):
        build_graph("torus", 4)


def test_cycle_ten_spectrum():
    spec = laplacian_spectrum(build_graph("cycle", 10))
    assert spec.lambda2 == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 5.0), abs=1e-10)
    assert spec.lambda_n == pytest.approx(4.0, abs=1e-10)
    assert np.abs(spec.L @ np.ones(10)).max() < 1e-12


@pytest.mark.parametrize("n", range(3, 21))
def test_cycle_algebraic_connectivity_formula(n):
    spec = laplacian_spectrum(build_graph("cycle", n))
    assert spec.lambda2 == pytest.approx(2.0 - 2.0 * np.cos(2.0 * np.pi / n), abs=1e-9)


@pytest.mark.parametrize("n", [500, 1000])
def test_large_cycle_full_spectrum(n):
    spec = laplacian_spectrum(build_graph("cycle", n))
    exact = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.abs(spec.eigenvalues - exact).max() <= 1e-12


def test_weighted_laplacian_scales():
    spec = laplacian_spectrum(build_graph("path", 2, weight=2.5))
    assert np.allclose(spec.eigenvalues, [0.0, 5.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_quadratic_form(seed):
    rng = np.random.default_rng(seed)
    G = random_connected_graph(8, rng)
    L = G.laplacian
    x = rng.standard_normal(8)
    direct = sum(w * (x[i] - x[j]) ** 2 for (i, j, w) in G.edges)
    assert x @ L @ x == pytest.approx(direct, rel=1e-12)


def test_laplacian_spectrum_rejects_single_node():
    with pytest.raises(ValueError):
        laplacian_spectrum(WeightedGraph(n=1))


def test_laplacian_spectrum_rejects_numerically_disconnected_graph():
    # connected as an edge list, but lambda_2 = 1.5e-12 is at numerical zero
    G = WeightedGraph(n=3, edges=((0, 1, 1.0), (1, 2, 1e-12)))
    with pytest.raises(DisconnectedGraphError, match="lambda_2 = 1.500e-12 at numerical zero"):
        laplacian_spectrum(G)


def test_disagreement_basis_two_nodes():
    spec = laplacian_spectrum(build_graph("path", 2))
    S = disagreement_basis(spec)
    assert S.shape == (2, 1)
    assert abs(abs(S[0, 0]) - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(S[:, 0].sum()) < 1e-12


def test_disagreement_basis_repeated_eigenvalues():
    # the triangle has a doubly repeated nonzero eigenvalue
    spec = laplacian_spectrum(build_graph("cycle", 3))
    S = disagreement_basis(spec)
    assert np.abs(S.T @ S - np.eye(2)).max() < 1e-9
    assert np.abs(S.T @ spec.L @ S - 3.0 * np.eye(2)).max() < 1e-9


# on cycle200 every nonzero eigenvalue but 4 is doubly repeated
@pytest.mark.parametrize("graph", ["cycle10", "cycle200", "complete6", "random"])
def test_disagreement_basis_identities(graph):
    if graph.startswith("cycle"):
        G = build_graph("cycle", int(graph[len("cycle"):]))
    elif graph == "complete6":
        G = build_graph("complete", 6)
    else:
        G = random_connected_graph(9, np.random.default_rng(42))
    spec = laplacian_spectrum(G)
    S = disagreement_basis(spec)
    n = G.n
    ones = np.ones(n)
    assert np.abs(S.T @ ones).max() < 1e-9
    assert np.abs(S.T @ S - np.eye(n - 1)).max() < 1e-9
    assert np.abs(S @ S.T - (np.eye(n) - np.outer(ones, ones) / n)).max() < 1e-9
    assert np.abs(S.T @ spec.L @ S - np.diag(spec.eigenvalues[1:])).max() < 1e-9


def test_laplacian_spectrum_holds_no_dense_array_but_the_laplacian():
    # the spectrum keeps L (n^2 floats) and n eigenvalues; an eigenvector
    # matrix or a symmetrized copy would each add another n^2 floats
    # (a full eigh peaked at 3.0 L here), so 1.5 L admits L alone
    G = build_graph("cycle", 400)
    tracemalloc.start()
    try:
        spec = laplacian_spectrum(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * spec.L.nbytes


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_values_only_spectrum_matches_full_eigh(n, seed):
    # random spanning tree plus extra edges, weights log-uniform in
    # [1e-2, 1e2]. Both LAPACK solvers are backward stable, so by Weyl
    # each puts every eigenvalue within a small multiple of
    # n eps lambda_n of the exact one; at n <= 40, 1e-13 lambda_n leaves
    # room over the 2.3e-15 lambda_n measured worst on 3000 such graphs
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        edges.add(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
    spec = laplacian_spectrum(WeightedGraph(
        n, [(i, j, float(10.0 ** rng.uniform(-2.0, 2.0))) for (i, j) in sorted(edges)]))
    assert np.abs(spec.eigenvalues - np.linalg.eigh(spec.L)[0]).max() <= 1e-13 * spec.lambda_n
    S = disagreement_basis(spec)
    tol = 1e-9 * max(1.0, spec.lambda_n)  # disagreement_basis's own tolerance
    assert np.abs(S.T @ np.ones(n)).max() <= tol
    assert np.abs(S.T @ S - np.eye(n - 1)).max() <= tol
    assert np.abs(S.T @ spec.L @ S - np.diag(spec.eigenvalues[1:])).max() <= tol
