"""Network topology representation and spectral connectivity analysis.

Graphs are undirected, without self-loops, and every node belongs to its own
neighborhood.  The degree ``n_k`` counts the node itself, so ``n_k >= 1``
always holds.  The Laplacian uses ``n_k - 1`` on the diagonal (the number of
incident edges) and ``-1`` for each neighbor pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, ValidationError


@dataclass(frozen=True)
class Topology:
    """Undirected graph with self-inclusive neighborhoods.

    Attributes
    ----------
    n : int
        Node count.
    adjacency : (n, n) bool ndarray
        Symmetric, zero diagonal.
    neighborhoods : tuple of tuples
        ``neighborhoods[k]`` is the sorted tuple of nodes in N_k, always
        containing ``k`` itself.
    degrees : (n,) int ndarray
        ``degrees[k] == len(neighborhoods[k])``.
    """

    n: int
    adjacency: np.ndarray
    neighborhoods: tuple
    degrees: np.ndarray

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    def edges(self) -> list[tuple[int, int]]:
        """Distinct-node edges as sorted (low, high) pairs, lexicographic order."""
        lo, hi = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(lo.tolist(), hi.tolist()))

    @cached_property
    def neighborhood_sum(self) -> "NeighborSum":
        """``out[k] = sum of values[l] over l in N_k``."""
        return NeighborSum(self.adjacency | np.eye(self.n, dtype=bool))


class NeighborSum:
    """``out[k] = sum_l w[l, k] * values[l]`` for one fixed (N, N) weight matrix.

    The nonzero weights form a destination-sorted edge list, reduced with
    ``np.add.reduceat`` in a fixed order, so results repeat bit for bit.
    ``values[l]`` is never read for a zero weight, so data a node does not
    receive cannot reach it, not even as NaN.  A node with no nonzero weight
    gets zeros.
    """

    def __init__(self, weights):
        wt = np.asarray(weights, dtype=float).T
        dst, self._src = np.nonzero(wt)
        counts = np.count_nonzero(wt, axis=1)
        self._weights = wt[dst, self._src]
        self._received = counts > 0
        self._every_node = bool(self._received.all())
        self._starts = (np.cumsum(counts) - counts)[self._received]

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        terms = self._weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values[self._src]
        if self._every_node:
            return np.add.reduceat(terms, self._starts, axis=0)
        out = np.zeros((self._received.size,) + values.shape[1:])
        out[self._received] = np.add.reduceat(terms, self._starts, axis=0)
        return out


@dataclass(frozen=True)
class ConnectivityReport:
    """Spectral connectivity summary of a topology.

    ``laplacian_eigenvalues`` are sorted descending; the last one is zero up
    to tolerance.  ``algebraic_connectivity`` is the second-smallest
    eigenvalue, positive exactly when the graph is connected.
    """

    laplacian_eigenvalues: np.ndarray
    algebraic_connectivity: float
    connected: bool
    zero_multiplicity: int


def build_topology(adjacency) -> Topology:
    """Validate an adjacency matrix and derive neighborhoods and degrees.

    Raises
    ------
    ValidationError
        If the matrix is not square, not symmetric (the offending pair is
        named), or has a nonzero diagonal (self-loops are rejected).
    """
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {adj.shape}")
    adj = adj.astype(bool)
    n = adj.shape[0]
    mismatch = np.argwhere(adj != adj.T)
    if mismatch.size:
        k, l = mismatch[0]
        raise ValidationError(
            f"adjacency is not symmetric: entry ({k}, {l}) != entry ({l}, {k})"
        )
    diag = np.flatnonzero(np.diagonal(adj))
    if diag.size:
        raise ValidationError(f"adjacency has a self-loop at node {diag[0]}")

    neighborhoods = tuple(
        tuple(sorted(set(np.flatnonzero(adj[k]).tolist()) | {k})) for k in range(n)
    )
    degrees = np.array([len(nk) for nk in neighborhoods], dtype=int)
    return Topology(n=n, adjacency=adj, neighborhoods=neighborhoods, degrees=degrees)


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian: ``n_k - 1`` on the diagonal, ``-1`` between neighbors."""
    lap = np.where(t.adjacency, -1.0, 0.0)
    np.fill_diagonal(lap, t.degrees - 1)
    return lap


def incidence(t: Topology) -> np.ndarray:
    """Node-by-edge incidence matrix.

    Each column carries ``+1`` at the lower-indexed endpoint and ``-1`` at the
    higher-indexed endpoint, so ``incidence(t) @ incidence(t).T`` equals
    ``laplacian(t)`` exactly.
    """
    edges = t.edges()
    inc = np.zeros((t.n, len(edges)))
    for e, (lo, hi) in enumerate(edges):
        inc[lo, e] = 1.0
        inc[hi, e] = -1.0
    return inc


def _bfs_connected(t: Topology) -> bool:
    if t.n == 0:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        k = queue.popleft()
        for l in np.flatnonzero(t.adjacency[k]):
            if l not in seen:
                seen.add(int(l))
                queue.append(int(l))
    return len(seen) == t.n


def connectivity_report(t: Topology, tol: float | None = None) -> ConnectivityReport:
    """Spectral connectivity analysis cross-checked against graph traversal.

    Parameters
    ----------
    tol : float, optional
        Zero-eigenvalue threshold.  Defaults to ``1e-9 * max(1, theta_1)``,
        which keeps the comparison scale-relative on large graphs.

    Raises
    ------
    InternalCheckError
        If the spectral verdict disagrees with breadth-first reachability;
        this signals a misconfigured tolerance, not bad input.
    """
    lap = laplacian(t)
    eigs = np.linalg.eigvalsh(lap)[::-1]  # descending
    if tol is None:
        tol = 1e-9 * max(1.0, float(eigs[0]) if t.n else 1.0)
    elif tol <= 0:
        raise ValidationError("tol must be positive")

    zero_multiplicity = int(np.sum(np.abs(eigs) <= tol))
    if t.n >= 2:
        algebraic_connectivity = float(eigs[t.n - 2])
        connected = algebraic_connectivity > tol
    else:
        # single node: trivially connected, no second eigenvalue exists
        algebraic_connectivity = np.inf
        connected = True

    if connected != _bfs_connected(t):
        raise InternalCheckError(
            "spectral connectivity disagrees with graph traversal "
            f"(algebraic connectivity {algebraic_connectivity:.3e}, tol {tol:.3e})"
        )
    if connected != (zero_multiplicity == 1):
        raise InternalCheckError(
            "zero-eigenvalue multiplicity inconsistent with connectivity flag"
        )
    return ConnectivityReport(
        laplacian_eigenvalues=eigs,
        algebraic_connectivity=algebraic_connectivity,
        connected=connected,
        zero_multiplicity=zero_multiplicity,
    )


def topology_from_dict(doc: dict) -> Topology:
    """Build a topology from ``{"n": int, "edges": [[a, b], ...]}`` (1-based)."""
    n = int(doc["n"])
    adj = np.zeros((n, n), dtype=bool)
    for pair in doc.get("edges", []):
        a, b = int(pair[0]), int(pair[1])
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValidationError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ValidationError(f"self-loop ({a}, {b}) not allowed")
        adj[a - 1, b - 1] = True
        adj[b - 1, a - 1] = True
    return build_topology(adj)


def topology_to_dict(t: Topology) -> dict:
    return {"n": t.n, "edges": [[lo + 1, hi + 1] for lo, hi in t.edges()]}


def random_connected_topology(n, rng, edge_prob: float = 0.3) -> Topology:
    """Random connected graph: a random spanning tree plus Bernoulli extras."""
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for idx in range(1, n):
        a = order[idx]
        b = order[rng.integers(0, idx)]
        adj[a, b] = adj[b, a] = True
    extra = rng.random((n, n)) < edge_prob
    extra = np.triu(extra, k=1)
    adj |= extra | extra.T
    return build_topology(adj)
