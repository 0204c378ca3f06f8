import numpy as np
import pytest

from diffnet import combiners, graph
from diffnet.combiners import (
    adapt_weights_all,
    build_combination,
    init_variance_state,
)
from diffnet.errors import PreconditionError
from diffnet.stochmat import classify_stochastic
from theory_oracles import variance_product


def path3():
    return graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})


def test_metropolis_path():
    a = build_combination(path3(), "metropolis").entries
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0], [third, third, third], [0, third, 2 * third]])
    np.testing.assert_allclose(a, expected, atol=1e-15)


def test_laplacian_rule_path():
    a = build_combination(path3(), "laplacian", gamma=1.0 / 3.0).entries
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0], [third, third, third], [0, third, 2 * third]])
    np.testing.assert_allclose(a, expected, atol=1e-15)


def test_laplacian_gamma_range():
    with pytest.raises(PreconditionError):
        build_combination(path3(), "laplacian", gamma=0.6)  # n_max = 3 -> cap 0.5
    with pytest.raises(PreconditionError):
        build_combination(path3(), "laplacian", gamma=-0.1)


def test_laplacian_gamma_inverse_max_degree_explicit_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = graph.random_connected_topology(int(rng.integers(2, 9)), rng)
        a = build_combination(t, "laplacian", gamma=1.0 / t.max_degree).entries
        expected = np.zeros((t.n, t.n))
        expected[t.adjacency] = 1.0 / t.max_degree
        np.fill_diagonal(expected, 1.0 - (t.degrees - 1) / t.max_degree)
        np.testing.assert_allclose(a, expected, atol=1e-14)


def test_max_degree_rule_is_laplacian_one_over_n():
    t = graph.random_connected_topology(6, np.random.default_rng(4))
    a = build_combination(t, "max_degree").entries
    b = build_combination(t, "laplacian", gamma=1.0 / t.n).entries
    np.testing.assert_allclose(a, b, atol=1e-15)


def test_relative_variance_weights():
    t = graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})
    a = build_combination(t, "relative_variance", gamma2=np.array([1.0, 4.0])).entries
    np.testing.assert_allclose(a[:, 0], [0.8, 0.2], atol=1e-15)
    np.testing.assert_allclose(a[:, 1], [0.8, 0.2], atol=1e-15)


def test_zero_variance_rejected():
    t = path3()
    with pytest.raises(PreconditionError):
        build_combination(t, "relative_variance", gamma2=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(PreconditionError):
        build_combination(t, "relative_degree_variance", sigma2_v=np.array([0.1, -1.0, 0.1]))


def test_every_rule_classifies_as_declared():
    rng = np.random.default_rng(9)
    for _ in range(20):
        t = graph.random_connected_topology(int(rng.integers(2, 9)), rng)
        specs = [
            ("identity", {}),
            ("averaging", {}),
            ("laplacian", {"gamma": 1.0 / max(t.max_degree, 2)}),
            ("max_degree", {}),
            ("metropolis", {}),
            ("relative_degree", {}),
            ("relative_variance", {"gamma2": rng.uniform(0.5, 2.0, t.n)}),
            ("relative_degree_variance", {"sigma2_v": rng.uniform(0.01, 1.0, t.n)}),
        ]
        for rule, params in specs:
            cm = build_combination(t, rule, **params)
            assert cm.kind in classify_stochastic(cm.entries, 1e-12)


def test_uniform_reductions():
    rng = np.random.default_rng(10)
    t = graph.random_connected_topology(7, rng)
    gamma2 = np.full(t.n, 0.37)
    rv = build_combination(t, "relative_variance", gamma2=gamma2)
    avg = build_combination(t, "averaging")
    np.testing.assert_array_equal(rv.entries, avg.entries)

    sigma2 = np.full(t.n, 0.004)
    rdv = build_combination(t, "relative_degree_variance", sigma2_v=sigma2)
    rd = build_combination(t, "relative_degree")
    np.testing.assert_array_equal(rdv.entries, rd.entries)


def test_variance_product_values():
    assert variance_product(0.1, 0.5, 2.0) == pytest.approx(0.01)
    assert variance_product(0.0, 0.5, 7.0) == 0.0
    with pytest.raises(PreconditionError):
        variance_product(-0.1, 0.5, 2.0)


def test_variance_product_matches_single_node_increment():
    # stand-alone LMS: steady-state E||psi - w_prev||^2 ~= mu^2 sigma^2 Tr(R)
    from diffnet.datamodel import EnsembleModel, sample_snapshot

    rng = np.random.default_rng(123)
    mu, sigma2 = 0.01, 0.1
    ru = np.array([[1.0, 0.2], [0.2, 1.0]])
    model = EnsembleModel(wo=np.array([1.0, -1.0]), ru=ru[None], sigma2_v=np.array([sigma2]))
    w = np.zeros(2)
    acc, count = 0.0, 0
    for i in range(40000):
        snap = sample_snapshot(model, rng)
        u, d = snap.u[0], snap.d[0]
        psi = w + mu * u * (d - u @ w)
        if i >= 2000:
            acc += float(((psi - w) ** 2).sum())
            count += 1
        w = psi
    expected = variance_product(mu, sigma2, np.trace(ru))
    assert abs(acc / count - expected) / expected < 0.10


def floor_hits(state):
    """Support entries whose variance estimate is below the floor."""
    return (state.gamma2 < combiners.VARIANCE_FLOOR) & state.support


def test_adapt_weights_step_recursion():
    t = graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})
    state = init_variance_state(t, nu=0.5)
    psi = np.array([[np.sqrt(3.0), 0.0], [0.0, 0.0]])
    state, entries = adapt_weights_all(state, psi, np.zeros((2, 2)))
    # nu=0.5, previous estimates 1, increments ||psi_l - w_1||^2 = 3 and 0
    np.testing.assert_allclose(state.gamma2[:, 1], [2.0, 0.5])
    assert not floor_hits(state).any()
    # inverse-variance weights 1/2 and 1/0.5, normalized
    np.testing.assert_allclose(entries[:, 1], [0.2, 0.8])


def test_adapt_weights_equal_variances_symmetric():
    t = graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})
    state = init_variance_state(t, nu=0.1)
    state, entries = adapt_weights_all(state, np.ones((2, 2)), np.zeros((2, 2)))
    np.testing.assert_allclose(entries, 0.5)


def test_adapt_weights_floor_signaled():
    t = path3()
    state = init_variance_state(t, nu=0.9999)
    psi = np.zeros((3, 2))
    # repeated zero increments drive the estimates to (nearly) zero
    for _ in range(2000):
        state, entries = adapt_weights_all(state, psi, np.zeros((3, 2)))
    assert floor_hits(state).any()
    # under the floor the weights stay finite, left-stochastic and on the support
    assert np.isfinite(entries).all()
    np.testing.assert_allclose(entries.sum(axis=0), 1.0)
    assert entries.min() >= 0.0
    assert np.all(entries[~state.support] == 0.0)


def test_adapt_weights_rows_sum_one_nonnegative():
    rng = np.random.default_rng(21)
    t = graph.random_connected_topology(6, rng)
    state = init_variance_state(t, nu=0.05)
    for _ in range(200):
        psi = rng.standard_normal((6, 3))
        w_prev = rng.standard_normal((6, 3))
        state, entries = adapt_weights_all(state, psi, w_prev)
        np.testing.assert_allclose(entries.sum(axis=0), np.ones(6), atol=1e-12)
        assert entries.min() >= 0.0
        assert np.all(entries[~state.support] == 0.0)


def _adapt_weights_scatter(state, psi, w_prev, floor=combiners.VARIANCE_FLOOR):
    """Reference form: boolean-mask scatter of the support entries."""
    d2 = ((psi[:, None, :] - w_prev[None, :, :]) ** 2).sum(axis=2)
    sup = state.support
    nu = state.nu[None, :]
    state.gamma2[sup] = ((1.0 - nu) * state.gamma2 + nu * d2)[sup]
    inv = 1.0 / np.where(sup, np.maximum(state.gamma2, floor), np.inf)
    return state, inv / inv.sum(axis=0, keepdims=True)


def test_adapt_weights_all_matches_scatter_form():
    rng = np.random.default_rng(22)
    t = graph.random_connected_topology(8, rng)
    state = init_variance_state(t, nu=rng.uniform(0.2, 0.6, 8))
    ref = init_variance_state(t, nu=state.nu)
    hits = 0
    for i in range(200):
        psi = rng.standard_normal((8, 3))
        # zero increments from step 120 on drive estimates under the floor
        w_prev = psi if i >= 120 else rng.standard_normal((8, 3))
        state, entries = adapt_weights_all(state, psi, w_prev)
        ref, entries_ref = _adapt_weights_scatter(ref, psi, w_prev)
        assert np.array_equal(state.gamma2, ref.gamma2)
        assert np.array_equal(entries, entries_ref)
        assert np.all(state.gamma2[~state.support] == 0.0)
        hits += bool(floor_hits(state).any())
    assert 0 < hits < 80


def test_adaptive_weights_converge_to_static_rule():
    # stationary ATC run: time-averaged adaptive weights approach the static
    # relative-variance rule computed from the true variance products
    from diffnet import diffusion
    from diffnet.datamodel import EnsembleModel
    from diffnet.stochmat import identity_combination

    rng = np.random.default_rng(77)
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]})
    ru = np.tile(np.eye(2), (3, 1, 1))
    sigma2 = np.array([0.02, 0.002, 0.008])
    model = EnsembleModel(wo=np.array([1.0, -0.5]), ru=ru, sigma2_v=sigma2)
    mu = 0.05
    eye = identity_combination(3, t)
    cfg = diffusion.DiffusionConfig(
        eye, build_combination(t, "averaging"), eye, mu, adaptive_weights=diffusion.AdaptiveWeightConfig(nu=0.05)
    )
    state = diffusion.init_state(cfg, 2)
    from diffnet.datamodel import sample_snapshot

    avg = np.zeros((3, 3))
    count = 0
    for i in range(5000):
        state = diffusion.adaptive_step(state, cfg, sample_snapshot(model, rng))
        if i >= 4000:
            avg += state.a2_dynamic
            count += 1
    avg /= count
    gamma2 = np.array([variance_product(mu, sigma2[k], np.trace(ru[k])) for k in range(3)])
    static = build_combination(t, "relative_variance", gamma2=gamma2).entries
    sup = t.adjacency | np.eye(3, dtype=bool)
    rel = np.abs(avg[sup] - static[sup]) / static[sup]
    assert rel.max() < 0.15
