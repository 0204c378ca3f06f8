import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet import analysis, combiners, diffusion, graph
from diffnet.analysis import (
    build_moments,
    compare_strategies,
    consensus_mean_matrix,
    generic_cost_report,
    imperfect_constructs,
    learning_curve_theory,
    mean_stability,
    noncooperative_small_step,
    performance_report,
    uniform_profile_msd,
    variance_constructs,
)
from diffnet.datamodel import (
    EnsembleModel,
    generate_model,
    random_link_noise,
    zero_link_noise,
)
from diffnet.diffusion import (
    atc_config,
    cta_config,
    general_config,
    non_cooperative_config,
    step_size_bounds,
)
from diffnet.errors import InstabilityError
from diffnet.stochmat import identity_combination


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (column-major)."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, rows: int) -> np.ndarray:
    return np.asarray(v).reshape(rows, -1, order="F")


def kronecker_steady_state(b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference X of X = B X B' + Y from the dense (NM)^2 system.

    vec(B X B') = (B (x) B) vec(X), so (I - B (x) B) vec(X) = vec(Y); this
    costs O((NM)^6) and serves only as an oracle at small NM.
    """
    nm = b.shape[0]
    return unvec(np.linalg.solve(np.eye(nm * nm) - np.kron(b, b), vec(y)), nm)


def series_steady_state(b: np.ndarray, y: np.ndarray, tol: float = 1e-16) -> np.ndarray:
    """Reference X = sum_k B^k Y (B')^k, summed until a term's trace is below tol.

    The Neumann series of X = B X B' + Y, summed term by term; it converges
    for rho(B) < 1 and shares no code with the library's doubling or the
    Kronecker system.
    """
    x = np.zeros_like(y)
    term = y.copy()
    while True:
        x += term
        if abs(np.trace(term)) < tol * abs(np.trace(x)):
            return x
        term = b @ term @ b.T


def recursion_learning_curve(vc, moments, w_init, steps, target):
    """Reference curve from the weighting recursion T_{j+1} = B' T_j B.

    Entry i is w~' T_{i+1} w~ + sum_{j <= i} Tr(Y T_j), the dual of
    Tr(target X_{i+1}) with X_{i+1} = B X_i B' + Y; two O((NM)^3) products
    per step.
    """
    n, m = moments.n, moments.m
    if w_init is None:
        w_init = np.zeros((n, m))
    werr = (moments.wo[None, :] - np.asarray(w_init, dtype=float).reshape(n, m)).reshape(-1)
    curve = np.empty(steps + 1)
    sig = target.copy()
    cum = 0.0
    for i in range(steps + 1):
        cum += float(np.tensordot(vc.y.T, sig))
        sig = vc.b.T @ sig @ vc.b
        curve[i] = werr @ sig @ werr + cum
    return curve


def node_values(x: np.ndarray, moments) -> tuple[np.ndarray, np.ndarray]:
    """Per-node MSD Tr(X_kk) and EMSE Tr(X_kk R_{u,k}) from a network X."""
    m = moments.m
    blocks = [x[k * m : (k + 1) * m, k * m : (k + 1) * m] for k in range(moments.n)]
    msd = np.array([np.trace(blk) for blk in blocks])
    emse = np.array([np.trace(blk @ ru) for blk, ru in zip(blocks, moments.ru_stack)])
    return msd, emse


def scalar_setup(mu=0.1, sigma2=1.0):
    model = EnsembleModel(wo=np.array([1.0]), ru=np.ones((1, 1, 1)), sigma2_v=np.array([sigma2]))
    cfg = non_cooperative_config(1, mu)
    moments = build_moments(model, cfg)
    return model, cfg, moments, variance_constructs(moments, cfg)


def random_setup(rng, n=3, m=2, mu=0.05, rule="metropolis", c_rule=None):
    t = graph.random_connected_topology(n, rng)
    model = generate_model(rng, n, m)
    a = combiners.build_combination(t, rule)
    if c_rule is None:
        c = identity_combination(n, t)
    else:
        c = combiners.build_combination(t, c_rule)
        if c.kind == "left":
            c = c.transpose()
    cfg = general_config(a, a, c, mu)
    moments = build_moments(model, cfg)
    return t, model, cfg, moments, variance_constructs(moments, cfg)


def test_vec_trace_identities():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        sig = rng.standard_normal((n, n))
        w = rng.standard_normal((n, n))
        u = rng.standard_normal((n, n))
        assert abs(np.trace(sig @ w) - vec(w.T) @ vec(sig)) < 1e-10
        np.testing.assert_allclose(
            vec(u @ sig @ w), np.kron(w.T, u) @ vec(sig), atol=1e-10
        )
        np.testing.assert_allclose(unvec(vec(sig), n), sig, atol=1e-15)


def test_scalar_closed_form():
    _, _, moments, vc = scalar_setup()
    assert vc.b[0, 0] == pytest.approx(0.9)
    assert vc.y[0, 0] == pytest.approx(0.01)
    rep = performance_report(vc, moments)
    assert rep.msd_network == pytest.approx(0.01 / 0.19, abs=1e-12)
    assert rep.emse_network == pytest.approx(0.01 / 0.19, abs=1e-12)
    # small-step limit mu sigma^2 M / 2 = 0.05
    assert abs(rep.msd_network - 0.05) < 0.005


def test_zero_b_gives_x_equals_y():
    _, _, moments, vc = scalar_setup()
    vc.b = np.zeros((1, 1))
    vc.rho_b = 0.0
    rep = performance_report(vc, moments)
    assert rep.msd_network == pytest.approx(vc.y[0, 0], rel=1e-14)
    assert rep.emse_network == pytest.approx(vc.y[0, 0], rel=1e-14)  # R_u = 1


def test_moments_identity_c():
    rng = np.random.default_rng(1)
    t, model, cfg, moments, _ = random_setup(rng)
    np.testing.assert_array_equal(moments.r, moments.ru)


def test_moments_scalar_network():
    model = EnsembleModel(wo=np.array([2.0]), ru=np.full((1, 1, 1), 3.0), sigma2_v=np.array([0.5]))
    cfg = non_cooperative_config(1, 0.01)
    moments = build_moments(model, cfg)
    assert moments.r.shape == (1, 1)
    assert moments.s[0, 0] == pytest.approx(1.5)


def test_moments_match_sampled_instantaneous_matrices():
    from diffnet.datamodel import sample_snapshot

    rng = np.random.default_rng(2)
    t = graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})
    model = generate_model(rng, 2, 2)
    c = combiners.build_combination(t, "averaging").transpose()
    cfg = general_config(
        combiners.build_combination(t, "metropolis"),
        combiners.build_combination(t, "metropolis"),
        c,
        0.01,
    )
    moments = build_moments(model, cfg)
    acc = np.zeros((2, 2, 2))
    n_draws = 100000
    for _ in range(n_draws):
        snap = sample_snapshot(model, rng)
        inst = snap.u[:, :, None] * snap.u[:, None, :]
        acc += np.einsum("lk,lmn->kmn", c.entries, inst)
    acc /= n_draws
    for k in range(2):
        assert np.abs(acc[k] - moments.rk_stack[k]).max() <= 0.03 * np.abs(
            moments.rk_stack[k]
        ).max()


def test_report_matches_kronecker_oracle():
    rng = np.random.default_rng(4)
    rules = [("metropolis", None), ("averaging", "averaging"), ("relative_degree", None)]
    for rule, c_rule in rules * 4:
        _, model, cfg, moments, vc = random_setup(rng, n=3, m=2, mu=0.04, rule=rule, c_rule=c_rule)
        rep = performance_report(vc, moments)
        assert rep.method == "linear_solve"
        msd, emse = node_values(kronecker_steady_state(vc.b, vc.y), moments)
        np.testing.assert_allclose(rep.msd_node, msd, rtol=1e-10)
        np.testing.assert_allclose(rep.emse_node, emse, rtol=1e-10)


def test_series_matches_linear_solve():
    rng = np.random.default_rng(4)
    for _ in range(10):
        _, model, cfg, moments, vc = random_setup(rng, n=3, m=2, mu=0.04)
        rep = performance_report(vc, moments)
        msd, _ = node_values(series_steady_state(vc.b, vc.y), moments)
        assert abs(msd.mean() - rep.msd_network) < 1e-8


def test_series_branch_equals_dense_branch():
    # the two independent oracles (Neumann series, dense Kronecker solve)
    # agree with each other and with the report, node by node
    rng = np.random.default_rng(5)
    _, model, cfg, moments, vc = random_setup(rng, n=3, m=2, mu=0.04)
    rep = performance_report(vc, moments)
    series_msd, series_emse = node_values(series_steady_state(vc.b, vc.y), moments)
    dense_msd, dense_emse = node_values(kronecker_steady_state(vc.b, vc.y), moments)
    np.testing.assert_allclose(series_msd, dense_msd, rtol=1e-8)
    np.testing.assert_allclose(series_emse, dense_emse, rtol=1e-8)
    np.testing.assert_allclose(rep.msd_node, series_msd, rtol=1e-8)
    np.testing.assert_allclose(rep.emse_node, series_emse, rtol=1e-8)


def test_steady_state_rejects_inaccurate_solution(monkeypatch):
    _, _, moments, vc = scalar_setup()
    exact = analysis._smith_doubling
    for wrong in (lambda b, y: exact(b, y) * (1 + 1e-6), lambda b, y: np.full_like(y, np.nan)):
        monkeypatch.setattr(analysis, "_smith_doubling", wrong)
        with pytest.raises(InstabilityError):
            performance_report(vc, moments)


def test_steady_state_scalar_near_unit_radius():
    # x = b^2 x + y has x = y / (1 - b^2); b = 0.9999 needs about 2^18 series terms
    b, y = 0.9999, 0.3
    x = analysis._steady_state(np.array([[b]]), np.array([[y]]))
    assert x[0, 0] == pytest.approx(y / (1.0 - b * b), rel=1e-12)


def test_steady_state_non_normal_b_matches_kronecker_oracle():
    # rho(B) = 0.99, but ||B^k||_2 peaks near 175 before it decays, so the
    # doubled powers A = B^(2^j) pass through large norms on the way down
    b = np.diag([0.99, 0.9, 0.8, 0.7]) + np.triu(np.ones((4, 4)), 1)
    y = np.diag([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(analysis._steady_state(b, y), kronecker_steady_state(b, y), rtol=1e-10)


def test_steady_state_accepts_accurate_x_under_large_transient_growth():
    # rho(B) = 0.99 with off-diagonal entries up to 3 gives ||X|| ~ 6e8 ||Y||;
    # forming B X B' then rounds at about eps ||B||^2 ||X||, above 1e-8 ||Y||
    rng = np.random.default_rng(36)
    b = np.diag(np.linspace(0.99, 0.5, 6)) + np.triu(rng.uniform(-3.0, 3.0, (6, 6)), 1)
    y = np.eye(6)
    x = analysis._steady_state(b, y)
    assert np.linalg.norm(x) > 1e8 * np.linalg.norm(y)
    assert np.linalg.norm(x - b @ x @ b.T - y) > 1e-8 * np.linalg.norm(y)
    np.testing.assert_allclose(x, kronecker_steady_state(b, y), rtol=1e-10)


@pytest.mark.parametrize("rho", [1.0001, 1.5, 1e200])
def test_steady_state_rejects_unstable_b(rho):
    # the series diverges, so doubling overflows and the residual check rejects it
    b = np.diag([rho, 0.5, 0.2]) + np.triu(np.full((3, 3), 0.3), 1)
    with pytest.raises(InstabilityError):
        analysis._steady_state(b, np.eye(3))


def test_network_msd_is_mean_of_node_msds():
    rng = np.random.default_rng(6)
    for _ in range(10):
        _, model, cfg, moments, vc = random_setup(rng, n=int(rng.integers(2, 5)))
        rep = performance_report(vc, moments)
        assert abs(rep.msd_network - rep.msd_node.mean()) < 1e-9
        assert abs(rep.emse_network - rep.emse_node.mean()) < 1e-9


def test_noncooperative_small_step_formulas():
    rng = np.random.default_rng(7)
    model = generate_model(rng, 4, 3, eigen_range=(0.8, 1.6))
    cfg = non_cooperative_config(4, 0.002)
    moments = build_moments(model, cfg)
    rep = performance_report(variance_constructs(moments, cfg), moments)
    msd_approx, emse_approx = noncooperative_small_step(model, 0.002)
    assert np.abs(rep.msd_node - msd_approx).max() / msd_approx.min() < 0.05
    assert np.abs(rep.emse_node - emse_approx).max() / emse_approx.min() < 0.05


def test_uniform_profile_decoupled_formula():
    # The decoupled series is the one oracle of the steady state cheap enough
    # at (N, M) = (40, 5), so it checks the doubling there with rho(B) near 1:
    # lambda_min(R_u) = 0.5 puts rho(B) at 1 - mu / 2, i.e. 0.990 and 0.9975
    # for the two large cases.
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    ru_large = q @ np.diag([0.5, 0.7, 0.9, 1.1, 1.3]) @ q.T
    ru_small = np.array([[1.0, 0.2], [0.2, 0.7]])
    for n, ru, mu in [(4, ru_small, 0.05), (40, ru_large, 0.02), (40, ru_large, 0.005)]:
        t = graph.random_connected_topology(n, rng)
        model = EnsembleModel(
            wo=np.linspace(-1.0, 1.0, ru.shape[0]),
            ru=np.tile(ru, (n, 1, 1)),
            sigma2_v=rng.uniform(0.001, 0.01, n),
        )
        a = combiners.build_combination(t, "metropolis")
        c = combiners.build_combination(t, "metropolis")  # doubly, usable as C
        cfg = general_config(a, a, c, mu)
        moments = build_moments(model, cfg)
        vc = variance_constructs(moments, cfg)
        assert vc.rho_b == pytest.approx(1.0 - mu * np.linalg.eigvalsh(ru)[0], abs=1e-12)
        rep = performance_report(vc, moments)
        decoupled = uniform_profile_msd(a, a, c, np.diag(model.sigma2_v), ru, mu, tol=1e-16)
        assert decoupled == pytest.approx(rep.msd_network, rel=1e-10)


def test_learning_curve_scalar_limit():
    _, _, moments, vc = scalar_setup()
    curve = learning_curve_theory(vc, moments, None, 3000).emse
    assert curve[-1] == pytest.approx(0.01 / 0.19, abs=1e-6)
    assert curve[0] == pytest.approx(vc.y[0, 0] + 0.81 * 1.0, abs=1e-12)


def test_learning_curve_from_truth_is_monotone():
    rng = np.random.default_rng(9)
    _, model, cfg, moments, vc = random_setup(rng)
    w_init = np.tile(model.wo, (moments.n, 1))
    curve = learning_curve_theory(vc, moments, w_init, 500).emse
    assert np.all(np.diff(curve) >= -1e-15)
    rep = performance_report(vc, moments)
    assert curve[-1] <= rep.emse_network + 1e-12


def test_learning_curve_tail_equals_steady_state_under_link_noise():
    rng = np.random.default_rng(21)
    t = graph.random_connected_topology(6, rng)
    model = generate_model(rng, 6, 2)
    a = combiners.build_combination(t, "metropolis")
    cfg = atc_config(a, identity_combination(6, t), 0.05)
    moments = build_moments(model, cfg)
    lm = random_link_noise(t, 2, rng, psi_scale=1e-3, d_scale=1e-3)
    vci = imperfect_constructs(moments, cfg, lm)
    noisy = performance_report(vci, moments).msd_network
    perfect = performance_report(variance_constructs(moments, cfg), moments).msd_network
    assert noisy > 10 * perfect  # the link noise dominates the steady state
    curves = learning_curve_theory(vci, moments, None, 3000)
    assert curves.msd[-1] == pytest.approx(noisy, rel=1e-10)


@pytest.mark.parametrize("noisy", [False, True])
def test_learning_curve_tail_equals_performance_report(noisy):
    rng = np.random.default_rng(23)
    t = graph.random_connected_topology(8, rng)
    model = generate_model(rng, 8, 3)
    a = combiners.build_combination(t, "metropolis")
    cfg = atc_config(a, a, 0.03)
    moments = build_moments(model, cfg)
    if noisy:
        vc = imperfect_constructs(moments, cfg, random_link_noise(t, 3, rng))
    else:
        vc = variance_constructs(moments, cfg)
    rep = performance_report(vc, moments)
    curves = learning_curve_theory(vc, moments, None, 4000)
    assert curves.emse[-1] == pytest.approx(rep.emse_network, rel=1e-10)
    assert curves.msd[-1] == pytest.approx(rep.msd_network, rel=1e-10)


def _strategy(kind, t):
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "metropolis")
    if kind == "atc":
        return atc_config(a, c, 0.04)
    if kind == "cta":
        return cta_config(a, c, 0.04)
    return general_config(a, combiners.build_combination(t, "relative_degree"), c, 0.04)


@pytest.mark.parametrize("kind", ["atc", "cta", "general"])
@pytest.mark.parametrize("noisy", [False, True])
def test_learning_curve_matches_recursion_oracle(kind, noisy):
    rng = np.random.default_rng(31)
    n, m = 7, 3
    t = graph.random_connected_topology(n, rng)
    model = generate_model(rng, n, m)
    cfg = _strategy(kind, t)
    moments = build_moments(model, cfg)
    if noisy:
        vc = imperfect_constructs(moments, cfg, random_link_noise(t, m, rng, w_scale=1e-3))
    else:
        vc = variance_constructs(moments, cfg)
    for w_init in (None, rng.standard_normal((n, m))):
        curves = learning_curve_theory(vc, moments, w_init, 600)
        emse = recursion_learning_curve(vc, moments, w_init, 600, moments.ru / n)
        msd = recursion_learning_curve(vc, moments, w_init, 600, np.eye(n * m) / n)
        np.testing.assert_allclose(curves.emse, emse, rtol=1e-10)
        np.testing.assert_allclose(curves.msd, msd, rtol=1e-10)


@pytest.mark.parametrize(
    "size, coupling, eigen_path",
    [
        (2, 1e-2, True),  # cond(V) = 5.5
        (3, 1e-3, True),  # cond(V) = 45
        (2, 1e-5, False),  # cond(V) = 170
        (2, 1e-7, False),  # cond(V) = 1.7e3
        (3, 1e-9, False),  # cond(V) = 4.5e5
        (4, 0.0, False),  # a Jordan block: defective
    ],
)
def test_learning_curve_near_defective_b_matches_oracle(monkeypatch, size, coupling, eigen_path):
    # B = Q J Q' with J a Jordan block of eigenvalue 0.9 (superdiagonal 0.3)
    # closed into a cycle by ``coupling``; the expansion in eigenvectors of a
    # near-defective B loses accuracy, so it must take the forward recursion
    rng = np.random.default_rng(size)
    j = 0.9 * np.eye(size) + 0.3 * np.eye(size, k=1)
    j[-1, 0] = coupling
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    b = q @ j @ q.T
    g = rng.standard_normal((size, size))
    vc = analysis.VarianceConstructs(
        b=b, g=np.eye(size), y=0.01 * g @ g.T, rho_b=float(np.abs(np.linalg.eigvals(b)).max())
    )
    model = EnsembleModel(wo=rng.standard_normal(size), ru=(g @ g.T + np.eye(size))[None],
                          sigma2_v=np.ones(1))
    moments = build_moments(model, non_cooperative_config(1, 0.1))
    solves = []
    real_solve = analysis._steady_state
    monkeypatch.setattr(analysis, "_steady_state", lambda *a: solves.append(1) or real_solve(*a))
    curves = learning_curve_theory(vc, moments, None, 400)
    assert bool(solves) == eigen_path
    emse = recursion_learning_curve(vc, moments, None, 400, moments.ru)
    msd = recursion_learning_curve(vc, moments, None, 400, np.eye(size))
    np.testing.assert_allclose(curves.emse, emse, rtol=1e-10)
    np.testing.assert_allclose(curves.msd, msd, rtol=1e-10)


def test_learning_curve_unstable_raises():
    model = EnsembleModel(wo=np.array([1.0]), ru=np.ones((1, 1, 1)), sigma2_v=np.array([1.0]))
    cfg = non_cooperative_config(1, 2.5)
    moments = build_moments(model, cfg)
    vc = variance_constructs(moments, cfg)
    with pytest.raises(InstabilityError):
        learning_curve_theory(vc, moments, None, 10)


def test_mean_stability_verdicts():
    rng = np.random.default_rng(10)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "averaging")
    c = combiners.build_combination(t, "metropolis")
    bound = step_size_bounds(model, c)
    cfg = general_config(a, a, c, 0.99 * bound)
    moments = build_moments(model, cfg)
    info = mean_stability(variance_constructs(moments, cfg), moments, cfg)
    assert info["stable"]
    assert np.all(info["per_node_bound_ok"])

    cfg_bad = non_cooperative_config(4, 1.01 * step_size_bounds(model, identity_combination(4)))
    moments_bad = build_moments(model, cfg_bad)
    info_bad = mean_stability(variance_constructs(moments_bad, cfg_bad), moments_bad, cfg_bad)
    assert not info_bad["stable"]
    assert info_bad["rho_b"] >= 1.0


def test_consensus_mean_matrix_can_be_unstable_with_node_bounds_ok():
    # random search for a combination matrix whose consensus dynamics diverge
    # even though every per-node step size satisfies its local bound
    rng = np.random.default_rng(11)
    found = None
    for _ in range(500):
        n = int(rng.integers(2, 5))
        model = EnsembleModel(
            wo=np.ones(1), ru=np.ones((n, 1, 1)), sigma2_v=np.full(n, 0.01)
        )
        x = rng.random((n, n)) + 0.01
        perm = np.eye(n)[rng.permutation(n)]
        a_entries = 0.95 * perm + 0.05 * x / x.sum(axis=0, keepdims=True)
        a_entries /= a_entries.sum(axis=0, keepdims=True)
        from diffnet.stochmat import CombinationMatrix

        a = CombinationMatrix(a_entries, "left")
        mu = rng.uniform(1.5, 1.99)
        cfg = non_cooperative_config(n, mu)
        moments = build_moments(model, cfg)
        rho_cons = np.abs(np.linalg.eigvals(consensus_mean_matrix(a, moments))).max()
        bounds_ok = mu < 2.0  # lambda_max(R_u) = 1 everywhere
        if bounds_ok and rho_cons >= 1.0:
            # the diffusion counterpart with the same A stays stable
            cfg_atc = atc_config(a, identity_combination(n), mu)
            vc = variance_constructs(build_moments(model, cfg_atc), cfg_atc)
            found = (rho_cons, vc.rho_b)
            break
    assert found is not None
    rho_cons, rho_diff = found
    assert rho_cons >= 1.0 and rho_diff < 1.0


def test_compare_strategies_identity_all_equal():
    rng = np.random.default_rng(12)
    model = generate_model(rng, 3, 2)
    eye = identity_combination(3)
    report = compare_strategies(model, eye, eye, 0.01)
    vals = [report.msd["atc"], report.msd["cta"], report.msd["lms"]]
    assert max(vals) - min(vals) < 1e-12 * max(vals)


def test_compare_strategies_uniform_ordering():
    rng = np.random.default_rng(13)
    t = graph.random_connected_topology(5, rng)
    ru = np.array([[1.0, 0.1], [0.1, 0.9]])
    model = EnsembleModel(
        wo=np.array([1.0, 0.0]),
        ru=np.tile(ru, (5, 1, 1)),
        sigma2_v=rng.uniform(0.001, 0.01, 5),
    )
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "metropolis")
    report = compare_strategies(model, a, c, 0.02)
    for name in ("atc<=cta", "cta<=lms", "atc<=lms"):
        row = report.row(name)
        assert row.applicable and row.holds, name
    # uniform noise: C'RvC <= Rv rows become applicable and hold
    model_u = EnsembleModel(
        wo=np.array([1.0, 0.0]), ru=np.tile(ru, (5, 1, 1)), sigma2_v=np.full(5, 0.005)
    )
    report_u = compare_strategies(model_u, a, c, 0.02)
    for name in ("cta_exchange<=cta_local", "atc_exchange<=atc_local"):
        row = report_u.row(name)
        assert row.applicable and row.holds, name


def test_compare_strategies_skips_with_reason():
    rng = np.random.default_rng(14)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)  # non-uniform covariances
    a = combiners.build_combination(t, "averaging")  # left, not doubly
    c = identity_combination(4, t)
    report = compare_strategies(model, a, c, 0.01)
    row = report.row("atc<=cta")
    assert not row.applicable and "doubly" in row.reason


def test_imperfect_zero_noise_degenerates_exactly():
    rng = np.random.default_rng(15)
    t, model, cfg, moments, vc = random_setup(rng, c_rule="averaging")
    vci = imperfect_constructs(moments, cfg, zero_link_noise(moments.n, moments.m))
    np.testing.assert_array_equal(vci.delta_y, np.zeros_like(vci.delta_y))
    np.testing.assert_array_equal(vci.y, vc.y)


def test_perfect_link_z_reduces_to_ctsc():
    rng = np.random.default_rng(16)
    t, model, cfg, moments, vc = random_setup(rng, c_rule="averaging")
    from diffnet.stochmat import kron_identity

    ct = kron_identity(cfg.c.entries.T, moments.m)
    np.testing.assert_allclose(vc.z, ct @ moments.s @ ct.T, atol=1e-14)
    vci = imperfect_constructs(moments, cfg, zero_link_noise(moments.n, moments.m))
    np.testing.assert_allclose(vci.z, ct @ moments.s @ ct.T, atol=1e-14)


def test_delta_y_psd_and_msd_penalty():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        t = graph.random_connected_topology(n, rng)
        model = generate_model(rng, n, 2)
        a = combiners.build_combination(t, "metropolis")
        c = combiners.build_combination(t, "averaging").transpose()
        cfg = general_config(a, a, c, 0.02)
        moments = build_moments(model, cfg)
        lm = random_link_noise(
            t, 2, rng, w_scale=10 ** rng.uniform(-6, -3), psi_scale=10 ** rng.uniform(-6, -3),
            d_scale=10 ** rng.uniform(-5, -2),
        )
        vci = imperfect_constructs(moments, cfg, lm)
        min_eig = np.linalg.eigvalsh(0.5 * (vci.delta_y + vci.delta_y.T))[0]
        assert min_eig >= -1e-12
        perfect = performance_report(variance_constructs(moments, cfg), moments).msd_network
        imperfect = performance_report(vci, moments).msd_network
        assert imperfect >= perfect - 1e-15


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    m=st.integers(1, 3),
    rule=st.sampled_from(["metropolis", "averaging", "relative_degree"]),
    c_averaging=st.booleans(),
    frac=st.floats(0.02, 0.9),
)
def test_steady_state_invariants(seed, n, m, rule, c_averaging, frac):
    rng = np.random.default_rng(seed)
    t = graph.random_connected_topology(n, rng)
    model = generate_model(rng, n, m)
    a = combiners.build_combination(t, rule)
    if c_averaging:
        c = combiners.build_combination(t, "averaging").transpose()
    else:
        c = identity_combination(n, t)
    cfg = general_config(a, a, c, frac * step_size_bounds(model, c).min())
    moments = build_moments(model, cfg)
    vc = variance_constructs(moments, cfg)
    assert vc.rho_b < 1.0
    assert np.linalg.eigvalsh(vc.y)[0] >= -1e-14 * np.abs(vc.y).max()

    x = analysis._steady_state(vc.b, vc.y)
    scale = np.linalg.norm(x)
    assert np.linalg.norm(x - x.T) <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (x + x.T))[0] >= -1e-12 * scale
    assert np.linalg.norm(x - vc.b @ x @ vc.b.T - vc.y) <= 1e-10 * np.linalg.norm(vc.y)
    np.testing.assert_allclose(x, kronecker_steady_state(vc.b, vc.y), rtol=1e-9, atol=1e-12 * scale)


def test_generic_cost_report_quadratic_specialization():
    rng = np.random.default_rng(18)
    t, model, cfg, moments, vc = random_setup(rng, c_rule="averaging")
    rep = performance_report(vc, moments)
    msd = generic_cost_report(model.ru, cfg, vc.z)
    assert abs(msd - rep.msd_network) < 1e-10


def test_generic_cost_report_zero_noise():
    rng = np.random.default_rng(19)
    t, model, cfg, moments, vc = random_setup(rng)
    nm = moments.n * moments.m
    assert generic_cost_report(model.ru, cfg, np.zeros((nm, nm))) == 0.0


def test_generic_cost_report_matches_simulation():
    # mildly non-quadratic costs with injected gradient noise at mu = 0.005
    from diffnet.diffusion import generic_cost_step, init_state

    rng = np.random.default_rng(20)
    t = graph.random_connected_topology(3, rng)
    ru = np.array([[1.2, 0.1], [0.1, 1.0]])
    wo = np.array([0.5, -0.5])
    a = combiners.build_combination(t, "metropolis")
    cfg = atc_config(a, identity_combination(3, t), 0.005)
    sigma_g = 0.05
    beta = 0.1

    def oracle(l, w):
        e = w - wo
        return ru @ e + beta * e**3

    nm = 6
    z = sigma_g**2 * np.eye(nm)
    msd_theory = generic_cost_report(np.tile(ru, (3, 1, 1)), cfg, z)

    trials, iters, window = 60, 5000, 500
    acc = 0.0
    for trial_rng in diffusion.trial_rngs(101, trials):
        state = init_state(cfg, 2)
        noise = lambda l, w: sigma_g * trial_rng.standard_normal(2)
        for i in range(iters):
            state = generic_cost_step(state, cfg, oracle, noise)
            if i >= iters - window:
                acc += float(((state.w - wo) ** 2).sum()) / 3
    msd_sim = acc / (trials * window)
    gap_db = abs(10 * np.log10(msd_sim) - 10 * np.log10(msd_theory))
    assert gap_db < 1.5
