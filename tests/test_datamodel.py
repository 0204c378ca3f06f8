import numpy as np
import pytest

from diffnet.datamodel import (
    EnsembleModel,
    LinkNoiseModel,
    _psd_factors,
    generate_model,
    model_to_dict,
    random_link_noise,
    sample_link_noise,
    sample_snapshot,
)
from diffnet.errors import ValidationError
from diffnet import graph
from theory_oracles import cross_covariance, jmin, quadratic_cost, sigma2_d, zero_link_noise


def two_node_model():
    ru = np.array([[[1.0, 0.3], [0.3, 0.8]], [[1.5, -0.2], [-0.2, 0.6]]])
    return EnsembleModel(wo=np.array([1.0, 1.0]), ru=ru, sigma2_v=np.array([0.01, 0.05]))


def test_model_derived_fields():
    m = two_node_model()
    np.testing.assert_allclose(cross_covariance(m)[0], m.ru[0] @ m.wo, atol=1e-15)
    np.testing.assert_allclose(
        sigma2_d(m), [m.wo @ m.ru[k] @ m.wo + m.sigma2_v[k] for k in range(2)], atol=1e-15
    )
    # the minimum cost recovers the noise floor
    for k in range(2):
        assert abs(jmin(m, k) - m.sigma2_v[k]) < 1e-10


def test_model_validation():
    with pytest.raises(ValidationError):
        EnsembleModel(wo=np.ones(2), ru=np.zeros((1, 2, 2)), sigma2_v=np.array([0.1]))
    with pytest.raises(ValidationError):
        EnsembleModel(wo=np.ones(1), ru=np.ones((1, 1, 1)), sigma2_v=np.array([0.0]))
    asym = np.array([[[1.0, 0.5], [0.1, 1.0]]])
    with pytest.raises(ValidationError):
        EnsembleModel(wo=np.ones(2), ru=asym, sigma2_v=np.array([0.1]))


def test_snapshot_linear_relation_exact():
    # d = u wo + v holds exactly, term by term; with v = 0 and u = [2, 3],
    # wo = [1, 1] the measurement is 5
    m = two_node_model()
    rng = np.random.default_rng(0)
    for _ in range(100):
        snap = sample_snapshot(m, rng)
        np.testing.assert_array_equal(snap.d, snap.u @ m.wo + snap.v)
    assert np.array([2.0, 3.0]) @ np.array([1.0, 1.0]) == 5.0


def test_snapshot_second_moments():
    m = two_node_model()
    rng = np.random.default_rng(42)
    n_draws = 100000
    acc = np.zeros((2, 2, 2))
    var_d = np.zeros(2)
    for _ in range(n_draws):
        snap = sample_snapshot(m, rng)
        acc += snap.u[:, :, None] * snap.u[:, None, :]
        var_d += snap.d**2
    acc /= n_draws
    var_d /= n_draws
    for k in range(2):
        scale = np.abs(m.ru[k]).max()
        assert np.abs(acc[k] - m.ru[k]).max() <= 0.03 * scale
        assert abs(var_d[k] - sigma2_d(m)[k]) <= 0.03 * sigma2_d(m)[k]


def test_zero_link_noise_draws_exact_zero():
    lm = zero_link_noise(3, 2)
    rng = np.random.default_rng(1)
    draws = sample_link_noise(lm, rng)
    assert np.all(draws.vw == 0.0)
    assert np.all(draws.vpsi == 0.0)
    assert np.all(draws.vd == 0.0)


def test_link_draws_cover_only_noisy_pairs():
    # each call consumes exactly (P_w + P_psi) M + P_d normals: M per noisy vw
    # pair, then M per noisy vpsi pair, then one per noisy vd pair, each field
    # in flat l*N + k order; the values are the covariance factors applied to
    # those normals, and every pair off the support is exactly zero
    n, m = 7, 3
    t = graph.random_connected_topology(n, np.random.default_rng(8))
    for w_scale in (0.0, 1e-3):
        lm = random_link_noise(t, m, np.random.default_rng(9), w_scale=w_scale, psi_scale=1e-3, d_scale=1e-3)
        fw, fpsi = (_psd_factors(cov, name) for cov, name in ((lm.rw, "rw"), (lm.rpsi, "rpsi")))
        supports = [lm.rw.any(axis=(2, 3)), lm.rpsi.any(axis=(2, 3)), lm.sigma2_d != 0]
        assert supports[1].sum() == supports[2].sum() == t.adjacency.sum()
        assert supports[0].sum() == (t.adjacency.sum() if w_scale > 0 else 0)
        sizes = (supports[0].sum() * m, supports[1].sum() * m, supports[2].sum())
        rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
        for _ in range(20):
            draws = sample_link_noise(lm, rng)
            z = ref_rng.standard_normal(sum(sizes))
            zw, zpsi, zd = z[: sizes[0]], z[sizes[0] : sizes[0] + sizes[1]], z[sizes[0] + sizes[1] :]
            for got, factors, support, zs in ((draws.vw, fw, supports[0], zw),
                                              (draws.vpsi, fpsi, supports[1], zpsi)):
                want = np.einsum("pij,pj->pi", factors[support], zs.reshape(-1, m))
                np.testing.assert_allclose(got[support], want, rtol=1e-13, atol=0.0)
                assert np.all(got[~support] == 0.0)
            np.testing.assert_array_equal(draws.vd[supports[2]], np.sqrt(lm.sigma2_d[supports[2]]) * zd)
            assert np.all(draws.vd[~supports[2]] == 0.0)
        assert rng.standard_normal() == ref_rng.standard_normal()


def test_link_noise_empirical_covariance():
    # every noisy entry of a 3-node path (four directed pairs, all three
    # fields) has its model covariance, and distinct pairs and fields are
    # uncorrelated
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    rng = np.random.default_rng(5)
    lm = random_link_noise(t, 2, rng, w_scale=0.5, psi_scale=0.5, d_scale=0.1)
    pairs = np.argwhere(t.adjacency)
    assert len(pairs) == 4
    n_draws = 100000
    vw, vpsi, vd = np.empty((n_draws, 3, 3, 2)), np.empty((n_draws, 3, 3, 2)), np.empty((n_draws, 3, 3))
    for i in range(n_draws):
        vw[i], vpsi[i], vd[i] = sample_link_noise(lm, rng)
    l, k = pairs.T
    x = np.concatenate([vw[:, l, k].reshape(n_draws, -1), vpsi[:, l, k].reshape(n_draws, -1), vd[:, l, k]], axis=1)
    acc = x.T @ x / n_draws
    blocks = [(slice(2 * j, 2 * j + 2), lm.rw[l, k]) for j, (l, k) in enumerate(pairs)]
    blocks += [(slice(8 + 2 * j, 10 + 2 * j), lm.rpsi[l, k]) for j, (l, k) in enumerate(pairs)]
    blocks += [(slice(16 + j, 17 + j), lm.sigma2_d[l, k].reshape(1, 1)) for j, (l, k) in enumerate(pairs)]
    off_block = np.ones_like(acc, dtype=bool)
    for idx, target in blocks:
        assert np.abs(acc[idx, idx] - target).max() <= 0.03 * np.abs(target).max()
        off_block[idx, idx] = False
    scale = np.sqrt(np.diagonal(acc))
    assert np.abs(acc / np.outer(scale, scale))[off_block].max() <= 0.03


def test_link_noise_validation():
    bad = np.zeros((2, 2, 1, 1))
    bad[0, 0] = 1.0  # self pair must be zero
    with pytest.raises(ValidationError):
        LinkNoiseModel(rw=bad, rpsi=np.zeros((2, 2, 1, 1)), sigma2_d=np.zeros((2, 2)))
    indef = np.zeros((2, 2, 2, 2))
    indef[0, 1] = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValidationError):
        LinkNoiseModel(rw=indef, rpsi=np.zeros((2, 2, 2, 2)), sigma2_d=np.zeros((2, 2)))


def test_aggregate_psi_covariance_definition():
    # R_psi_k = sum_l a_lk^2 Rpsi[l, k] is a plain weighted sum over links
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    rng = np.random.default_rng(6)
    lm = random_link_noise(t, 2, rng, w_scale=0.0, psi_scale=1.0, d_scale=1e-3)
    a = np.abs(rng.standard_normal((3, 3)))
    agg = np.einsum("lk,lkmn->kmn", a**2, lm.rpsi)
    for k in range(3):
        manual = sum(a[l, k] ** 2 * lm.rpsi[l, k] for l in range(3))
        np.testing.assert_allclose(agg[k], manual, atol=1e-14)


def test_quadratic_cost_at_truth():
    m = two_node_model()
    for k in range(2):
        res = quadratic_cost(m, k, m.wo)
        assert res.j == pytest.approx(m.sigma2_v[k], abs=1e-12)
        np.testing.assert_allclose(res.gradient, 0.0, atol=1e-12)
        assert res.jmin == pytest.approx(m.sigma2_v[k], abs=1e-10)


def test_quadratic_cost_scalar_example():
    m = EnsembleModel(wo=np.array([1.0]), ru=np.ones((1, 1, 1)), sigma2_v=np.array([0.1]))
    res = quadratic_cost(m, 0, np.array([0.0]))
    assert res.j == pytest.approx(1.1)
    assert res.gradient[0] == pytest.approx(-2.0)


def test_quadratic_cost_gradient_finite_differences():
    m = two_node_model()
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(10):
        w = rng.standard_normal(2)
        for k in range(2):
            grad = quadratic_cost(m, k, w).gradient
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[j] = (quadratic_cost(m, k, w + e).j - quadratic_cost(m, k, w - e).j) / (2 * eps)
            assert np.abs(fd - grad).max() / max(np.abs(grad).max(), 1.0) < 1e-6


def test_cost_decomposition_identity():
    # J(w) = Jmin + (w - wo)' R (w - wo)
    m = two_node_model()
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.standard_normal(2)
        for k in range(2):
            res = quadratic_cost(m, k, w)
            quad = (w - m.wo) @ m.ru[k] @ (w - m.wo)
            assert abs(res.j - (res.jmin + quad)) < 1e-10


def test_normal_equations():
    m = generate_model(np.random.default_rng(8), 6, 3)
    for k in range(6):
        np.testing.assert_allclose(
            np.linalg.solve(m.ru[k], cross_covariance(m)[k]), m.wo, atol=1e-10
        )


def test_generator_ranges_and_determinism():
    m1 = generate_model(np.random.default_rng(9), 5, 2, (0.5, 2.0), (0.001, 0.01))
    m2 = generate_model(np.random.default_rng(9), 5, 2, (0.5, 2.0), (0.001, 0.01))
    np.testing.assert_array_equal(m1.ru, m2.ru)
    eigs = np.linalg.eigvalsh(m1.ru)
    assert eigs.min() >= 0.5 - 1e-9 and eigs.max() <= 2.0 + 1e-9
    assert m1.sigma2_v.min() >= 0.001 - 1e-12 and m1.sigma2_v.max() <= 0.01 + 1e-12


def test_model_serialization_round_trip():
    m = two_node_model()
    m2 = EnsembleModel(**model_to_dict(m))
    np.testing.assert_array_equal(m.wo, m2.wo)
    np.testing.assert_array_equal(m.ru, m2.ru)
    np.testing.assert_array_equal(m.sigma2_v, m2.sigma2_v)
