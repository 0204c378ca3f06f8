import numpy as np
import pytest

from diffnet import graph, stochmat
from diffnet.combiners import build_combination
from diffnet.errors import PreconditionError, ValidationError
from diffnet.stochmat import (
    CombinationMatrix,
    block_max_norm,
    block_max_norm_blockdiag,
    block_max_norm_kron,
    block_norm_bounds,
    classify_stochastic,
    is_regular,
    second_eigenvalue_magnitude,
    sinkhorn_normalize,
    spectral_radius,
    transformed_block_spectral_check,
)


def test_classify_examples():
    assert classify_stochastic(np.full((2, 2), 0.5), 1e-12) == {"left", "right", "doubly"}
    assert classify_stochastic(np.array([[1.0, 0.0], [0.3, 0.7]]), 1e-12) == {"right"}
    assert classify_stochastic(np.eye(3), 1e-12) == {"left", "right", "doubly"}
    assert classify_stochastic(np.array([[1.0, 2.0], [0.0, -1.0]]), 1e-12) == set()


def test_combination_matrix_validates_kind_and_support():
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    with pytest.raises(ValidationError):
        CombinationMatrix(np.array([[1.0, 0.0], [0.3, 0.7]]), "left")
    bad = np.full((3, 3), 1.0 / 3.0)  # entry (0, 2) off the path support
    with pytest.raises(ValidationError, match="neighbor"):
        CombinationMatrix(bad, "doubly", supported_on=t)


def test_neighbor_sum_reads_only_neighborhoods():
    # entry (0, 2) is off the path support but within tol, so validation
    # accepts it; node 2 must still never read node 0's values
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    entries = np.array([[0.5, 0.5, 1e-13], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5 - 1e-13]])
    a = CombinationMatrix(entries, "left", supported_on=t)
    values = np.array([[np.nan], [2.0], [4.0]])
    out = a.neighbor_sum(values)
    assert np.isnan(out[0, 0]) and np.isnan(out[1, 0])
    assert out[2, 0] == 0.5 * 2.0 + (0.5 - 1e-13) * 4.0


def test_is_regular():
    ok, j0 = is_regular(np.full((2, 2), 0.5))
    assert ok and j0 == 1
    ok, j0 = is_regular(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not ok and j0 is None
    ok, j0 = is_regular(np.eye(3))
    assert not ok
    # 3-path Metropolis has positive diagonal: regular with a small witness
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    ok, j0 = is_regular(build_combination(t, "metropolis"))
    assert ok and 1 <= j0 <= 5


def test_spectral_radius():
    rng = np.random.default_rng(0)
    x = rng.random((5, 5))
    row_stoch = x / x.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(spectral_radius(row_stoch), 1.0, atol=1e-12)
    assert spectral_radius(np.diag([2.0, 1.0])) == 2.0
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_large_path():
    rng = np.random.default_rng(1)
    x = rng.random((300, 300))
    x /= x.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(spectral_radius(x), 1.0, rtol=1e-8)


def test_second_eigenvalue_magnitude():
    assert second_eigenvalue_magnitude(np.full((4, 4), 0.25)) == pytest.approx(0.0, abs=1e-12)
    assert second_eigenvalue_magnitude(np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    # 3-path Metropolis spectrum is {1, 2/3, 0}
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    a = build_combination(t, "metropolis")
    assert second_eigenvalue_magnitude(a) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        second_eigenvalue_magnitude(np.array([[1.0, 0.0], [0.3, 0.7]]))


def test_block_max_norm_vector():
    assert block_max_norm(np.array([3.0, 4.0, 1.0, 0.0]), 2) == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        block_max_norm(np.ones(5), 2)


def test_block_max_norm_kron():
    assert block_max_norm_kron(np.array([[1.0, -2.0], [0.5, 0.5]])) == pytest.approx(3.0)


def test_block_max_norm_blockdiag():
    blocks = np.array([[[2.0]], [[1.0]]])
    assert block_max_norm_blockdiag(blocks) == pytest.approx(2.0)
    with pytest.raises(PreconditionError):
        block_max_norm_blockdiag(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


def test_block_norm_bounds_bracket():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        x = rng.standard_normal((n * m, n * m))
        lo, hi = block_norm_bounds(x, m)
        assert lo <= hi
        # the Kronecker-extended case has a computable norm inside the bracket
    a = rng.random((4, 4))
    big = np.kron(a, np.eye(3))
    lo, hi = block_norm_bounds(big, 3)
    assert lo - 1e-12 <= block_max_norm_kron(a) <= hi + 1e-12


def test_transformed_block_worked_example():
    # D = diag(2, 1) and A1' = A2' = [[1/3, 2/3], [2/3, 1/3]]:
    # product [[2/3, 2/3], [2/3, 1]] has spectral radius (5 + sqrt(17))/6
    a = np.array([[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]]).T
    d = np.array([[[2.0]], [[1.0]]])
    res = transformed_block_spectral_check(a, a, d)
    assert res["rhs"] == pytest.approx(2.0)
    assert res["lhs"] == pytest.approx((5.0 + np.sqrt(17.0)) / 6.0, abs=1e-12)
    assert abs(res["lhs"] - 1.52) < 0.01
    assert res["holds"]


def test_transformed_block_identity_case():
    d = np.array([[[1.7]], [[0.4]]])
    res = transformed_block_spectral_check(np.eye(2), np.eye(2), d)
    assert res["lhs"] == pytest.approx(res["rhs"], abs=1e-12)


def _random_left_stochastic(rng, n):
    x = rng.random((n, n)) + 0.05
    return x / x.sum(axis=0, keepdims=True)


def test_transformed_block_stable_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        blocks = np.empty((n, m, m))
        for k in range(n):
            b = rng.standard_normal((m, m))
            b = 0.5 * (b + b.T)
            blocks[k] = b / (np.abs(np.linalg.eigvalsh(b)).max() + 1e-12) * rng.uniform(0.1, 0.95)
        res = transformed_block_spectral_check(
            _random_left_stochastic(rng, n), _random_left_stochastic(rng, n), blocks
        )
        assert res["lhs"] < 1.0


def test_doubly_stochastic_trace_contraction():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        a = sinkhorn_normalize(rng.random((n, n)) + 0.05)
        x = rng.standard_normal((n, n))
        h = x @ x.T
        assert np.trace(a.T @ h @ a) <= np.trace(h) + 1e-10
        assert np.linalg.eigvalsh(np.eye(n) - a.T @ a).min() >= -1e-10


def test_regular_doubly_second_eigenvalue_below_one():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = sinkhorn_normalize(rng.random((n, n)) + 0.05)
        ok, _ = is_regular(a)
        assert ok
        assert second_eigenvalue_magnitude(a) < 1.0


def test_kron_norm_dominates_spectral_radius():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        assert block_max_norm_kron(a) >= spectral_radius(a) - 1e-10


def test_transpose_maps_kind():
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    a = build_combination(t, "averaging")
    assert a.kind == "left"
    c = a.transpose()
    assert c.kind == "right"
    assert np.array_equal(c.entries, a.entries.T)
