"""Topology construction and the Laplacian, with the spectral connectivity
analysis (algebraic connectivity cross-checked against graph traversal) and
the incidence factorization of the Laplacian as test helpers."""

from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from diffnet import graph
from diffnet.errors import ValidationError
from diffnet.graph import Topology


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


def incidence(t: Topology) -> np.ndarray:
    """Node-by-edge incidence matrix.

    Each column carries ``+1`` at the lower-indexed endpoint and ``-1`` at the
    higher-indexed endpoint, so ``incidence(t) @ incidence(t).T`` equals
    ``graph.laplacian(t)`` exactly.
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
    AssertionError
        If the spectral verdict disagrees with breadth-first reachability;
        this signals a misconfigured tolerance, not bad input.
    """
    lap = graph.laplacian(t)
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
        raise AssertionError(
            "spectral connectivity disagrees with graph traversal "
            f"(algebraic connectivity {algebraic_connectivity:.3e}, tol {tol:.3e})"
        )
    if connected != (zero_multiplicity == 1):
        raise AssertionError(
            "zero-eigenvalue multiplicity inconsistent with connectivity flag"
        )
    return ConnectivityReport(
        laplacian_eigenvalues=eigs,
        algebraic_connectivity=algebraic_connectivity,
        connected=connected,
        zero_multiplicity=zero_multiplicity,
    )


def path3():
    return graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})


def test_build_topology_path():
    t = path3()
    assert list(t.degrees) == [2, 3, 2]
    assert t.neighborhoods[1] == (0, 1, 2)
    assert t.neighborhoods[0] == (0, 1)


def test_build_topology_single_node():
    t = graph.build_topology(np.zeros((1, 1), dtype=bool))
    assert list(t.degrees) == [1]
    assert t.neighborhoods[0] == (0,)


def test_build_topology_six_node_eight_edge():
    edges = [[1, 2], [1, 3], [2, 3], [2, 4], [3, 5], [4, 5], [4, 6], [5, 6]]
    t = graph.topology_from_dict({"n": 6, "edges": edges})
    assert t.n == 6
    assert len(t.edges()) == 8
    inc = incidence(t)
    assert inc.shape == (6, 8)
    assert np.array_equal(inc @ inc.T, graph.laplacian(t))


def test_asymmetric_adjacency_names_pair():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = True  # missing the (1, 0) mirror
    with pytest.raises(ValidationError, match=r"\(0, 1\)|\(1, 0\)"):
        graph.build_topology(adj)


def test_self_loop_rejected():
    adj = np.eye(2, dtype=bool)
    with pytest.raises(ValidationError, match="self-loop"):
        graph.build_topology(adj)


def test_laplacian_path():
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(graph.laplacian(path3()), expected)


def test_laplacian_isolated_nodes():
    t = graph.build_topology(np.zeros((2, 2), dtype=bool))
    assert np.array_equal(graph.laplacian(t), np.zeros((2, 2)))


def test_laplacian_rows_sum_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = graph.random_connected_topology(rng.integers(2, 10), rng)
        assert np.array_equal(graph.laplacian(t) @ np.ones(t.n), np.zeros(t.n))


def test_incidence_two_nodes():
    t = graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})
    assert np.array_equal(incidence(t), np.array([[1.0], [-1.0]]))


def test_incidence_path_product():
    t = path3()
    inc = incidence(t)
    assert inc.shape == (3, 2)
    assert np.array_equal(inc @ inc.T, graph.laplacian(t))


def test_incidence_empty_edges():
    t = graph.build_topology(np.zeros((4, 4), dtype=bool))
    inc = incidence(t)
    assert inc.shape == (4, 0)
    assert np.array_equal(inc @ inc.T, np.zeros((4, 4)))


def test_connectivity_path():
    # spectrum of the 3-path Laplacian [[1,-1,0],[-1,2,-1],[0,-1,1]] is {3, 1, 0}
    rep = connectivity_report(path3())
    np.testing.assert_allclose(rep.laplacian_eigenvalues, [3.0, 1.0, 0.0], atol=1e-12)
    assert rep.connected
    assert rep.zero_multiplicity == 1
    np.testing.assert_allclose(rep.algebraic_connectivity, 1.0, atol=1e-12)


def test_connectivity_disjoint_edges():
    t = graph.topology_from_dict({"n": 4, "edges": [[1, 2], [3, 4]]})
    rep = connectivity_report(t)
    assert rep.zero_multiplicity == 2
    assert not rep.connected


def test_connectivity_complete_graph():
    # complete graph on 3 nodes: Laplacian 2I - (J - I), spectrum {3, 3, 0}
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    rep = connectivity_report(t)
    np.testing.assert_allclose(rep.laplacian_eigenvalues, [3.0, 3.0, 0.0], atol=1e-12)


def test_connectivity_single_node():
    rep = connectivity_report(graph.build_topology(np.zeros((1, 1), dtype=bool)))
    assert rep.connected
    assert rep.zero_multiplicity == 1


def test_spectral_vs_traversal_on_random_graphs():
    # connectivity_report raises internally if the spectral and BFS verdicts
    # ever disagree, so it is enough to call it on many random graphs
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        dense = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        adj = np.triu(dense, k=1)
        t = graph.build_topology(adj | adj.T)
        rep = connectivity_report(t)
        assert rep.laplacian_eigenvalues.min() >= -1e-9
        assert np.array_equal(
            incidence(t) @ incidence(t).T, graph.laplacian(t)
        )


def test_topology_dict_round_trip():
    t = graph.random_connected_topology(7, np.random.default_rng(5), 0.4)
    t2 = graph.topology_from_dict(graph.topology_to_dict(t))
    assert np.array_equal(t.adjacency, t2.adjacency)


def test_topology_from_dict_validates():
    with pytest.raises(ValidationError):
        graph.topology_from_dict({"n": 3, "edges": [[1, 4]]})
    with pytest.raises(ValidationError):
        graph.topology_from_dict({"n": 3, "edges": [[2, 2]]})
