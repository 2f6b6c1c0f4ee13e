"""Weighted undirected graphs, Laplacian spectra, and the disagreement basis.

A graph builds its dense read-only Laplacian L once; the solvers step
with it and its spectrum keeps it. Every bound in :mod:`scalareq.theory`
reads Laplacian eigenvalues alone, and a run reads lambda_n only for the
dt step-size check. The disagreement basis S, orthonormal, orthogonal
to consensus and diagonalizing the Laplacian, is computed only when
asked for.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError

ZERO_EIG_TOL = 1e-9


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected weighted graph on nodes 0..n-1.

    Edges are stored as (i, j, weight) with i < j and 0 < weight < inf.
    Connectivity is verified at construction. n = 1 (a single node, no
    edges) is allowed as the trivial case used by scalar instances.
    """

    n: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        seen = set()
        norm = []
        for (i, j, w) in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) outside node range 0..{self.n - 1}")
            if not 0 < w < np.inf:
                raise ValueError(f"edge ({i},{j}) has weight {w}, not finite and positive")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(norm))
        comp = self.component_of(0)
        if len(comp) != self.n:
            raise DisconnectedGraphError(
                f"graph is disconnected; component of node 0 is {sorted(comp)}")

    def component_of(self, start):
        """Set of nodes reachable from ``start`` (iterative traversal)."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self.neighbor_lists[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    @cached_property
    def neighbor_lists(self):
        """Tuple indexed by node: sorted tuple of (neighbor, weight)."""
        adj = {i: [] for i in range(self.n)}
        for (i, j, w) in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return tuple(tuple(sorted(adj[i])) for i in range(self.n))

    @cached_property
    def laplacian(self):
        """Dense read-only Laplacian, built once: -a_ij off the diagonal, degrees on it."""
        L = np.zeros((self.n, self.n))
        for (i, j, w) in self.edges:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
        L.flags.writeable = False
        return L


def build_graph(kind, n, weight=1.0):
    """Construct a standard topology; WeightedGraph(n, edges) takes any
    other edge list.

    Args:
        kind: 'cycle' (n >= 3), 'path' or 'complete'.
        n: node count (>= 2; use WeightedGraph directly for n = 1).
        weight: uniform edge weight.
    """
    if n < 2:
        raise ValueError(f"standard topologies need n >= 2, got n={n}")
    if weight <= 0:
        raise ValueError(f"need weight > 0, got {weight}")
    if kind == "cycle":
        if n < 3:
            raise ValueError("a cycle needs n >= 3 (n = 2 would duplicate the edge)")
        e = [(i, i + 1, weight) for i in range(n - 1)] + [(0, n - 1, weight)]
    elif kind == "path":
        e = [(i, i + 1, weight) for i in range(n - 1)]
    elif kind == "complete":
        e = [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return WeightedGraph(n=n, edges=tuple(e))


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Laplacian with its ascending eigenvalues; lambda2 / lambda_n are
    the algebraic connectivity and the largest eigenvalue."""

    L: np.ndarray
    eigenvalues: np.ndarray
    lambda2: float
    lambda_n: float


def laplacian_spectrum(G):
    """G's Laplacian (exactly symmetric, finite; the graph's own array)
    with its ascending eigenvalues from the values-only
    ``numpy.linalg.eigvalsh``.

    Raises:
        DisconnectedGraphError: lambda_2 at numerical zero.
    """
    if G.n < 2:
        raise ValueError("spectral analysis needs n >= 2")
    L = G.laplacian
    lam = np.linalg.eigvalsh(L)
    scale = max(1.0, float(lam[-1]))
    if abs(lam[0]) > ZERO_EIG_TOL * scale:
        raise RuntimeError(f"smallest Laplacian eigenvalue {lam[0]:.3e} not at zero")
    if lam[1] <= ZERO_EIG_TOL * scale:
        raise DisconnectedGraphError(
            f"lambda_2 = {lam[1]:.3e} at numerical zero (graph effectively disconnected)"
        )
    return LaplacianSpectrum(
        L=L,
        eigenvalues=lam,
        lambda2=float(lam[1]),
        lambda_n=float(lam[-1]),
    )


def disagreement_basis(spec):
    """Orthonormal basis S (n x (n-1)) of the disagreement subspace.

    Columns are the Laplacian eigenvectors of the nonzero eigenvalues from
    ``numpy.linalg.eigh``, orthonormal, repeated eigenspaces included.
    Satisfies, each to 1e-9 * max(1, lambda_n):

        S^T 1 = 0,  S^T S = I,  S S^T = I - 11^T/n,  S^T L S = diag(lambda_2..lambda_n)
    """
    lam = spec.eigenvalues
    n = len(lam)
    S = np.linalg.eigh(spec.L)[1][:, 1:]

    ones = np.ones(n)
    checks = (
        float(np.abs(S.T @ ones).max()),
        float(np.abs(S.T @ S - np.eye(n - 1)).max()),
        float(np.abs(S @ S.T - (np.eye(n) - np.outer(ones, ones) / n)).max()),
        float(np.abs(S.T @ spec.L @ S - np.diag(lam[1:])).max()),
    )
    if max(checks) > 1e-9 * max(1.0, float(lam[-1])):
        raise RuntimeError(f"disagreement basis identities violated: residuals {checks}")
    return S
