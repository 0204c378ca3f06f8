import numpy as np
import pytest
import scipy.optimize

from diffnet import combiners, diffusion, graph
from diffnet.datamodel import (
    EnsembleModel,
    Snapshot,
    generate_model,
    random_link_noise,
    sample_link_noise,
    sample_snapshot,
    zero_link_noise,
)
from diffnet.diffusion import (
    AdaptiveWeightConfig,
    SmoothingConfig,
    adaptive_step,
    atc_config,
    consensus_average,
    consensus_error_curve,
    consensus_lms_config,
    consensus_lms_step,
    cta_config,
    fit_geometric_rate,
    general_config,
    generic_cost_step,
    generic_step_bound,
    init_state,
    non_cooperative_config,
    run_steepest_descent,
    simulate_trial,
    smoothing_step,
    steepest_descent_step,
    step_size_bounds,
)
from diffnet.errors import PreconditionError, ValidationError
from diffnet.stochmat import CombinationMatrix, identity_combination


def scalar_model():
    return EnsembleModel(wo=np.array([1.0]), ru=np.ones((1, 1, 1)), sigma2_v=np.array([0.01]))


def pair_topology():
    return graph.topology_from_dict({"n": 2, "edges": [[1, 2]]})


def half_matrix(t):
    return CombinationMatrix(np.full((2, 2), 0.5), "doubly", supported_on=t)


def test_steepest_descent_scalar_recursion():
    model = scalar_model()
    cfg = non_cooperative_config(1, 0.5)
    state = init_state(cfg, 1)
    state = steepest_descent_step(state, cfg, model)
    assert state.w[0, 0] == pytest.approx(0.5)
    state = steepest_descent_step(state, cfg, model)
    assert state.w[0, 0] == pytest.approx(0.75)


def test_steepest_descent_converges_under_bound():
    rng = np.random.default_rng(0)
    t = graph.random_connected_topology(5, rng)
    model = generate_model(rng, 5, 2)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    cfg = general_config(a, a, c, 0.99 * step_size_bounds(model, c))
    dev, state = run_steepest_descent(model, cfg, 8000)
    assert dev[-1] < 1e-10
    assert np.abs(state.w - model.wo).max() < 1e-10


def test_steepest_descent_identity_reduces_to_per_node():
    rng = np.random.default_rng(1)
    model = generate_model(rng, 3, 2)
    cfg = non_cooperative_config(3, 0.1)
    state = init_state(cfg, 2)
    w_manual = np.zeros((3, 2))
    for _ in range(20):
        state = steepest_descent_step(state, cfg, model)
        for k in range(3):
            w_manual[k] = w_manual[k] + 0.1 * (model.rdu[k] - model.ru[k] @ w_manual[k])
    np.testing.assert_array_equal(state.w, w_manual)


def test_adaptive_scalar_single_step():
    cfg = non_cooperative_config(1, 0.5)
    state = init_state(cfg, 1)
    snap = Snapshot(d=np.array([2.0]), u=np.array([[1.0]]), v=np.zeros(1))
    state = adaptive_step(state, cfg, snap)
    assert state.w[0, 0] == pytest.approx(1.0)


def test_adaptive_two_node_hand_example():
    t = pair_topology()
    a = half_matrix(t)
    cfg = atc_config(a, identity_combination(2, t), 1.0)
    state = init_state(cfg, 1)
    snap = Snapshot(d=np.array([1.0, 3.0]), u=np.ones((2, 1)), v=np.zeros(2))
    state = adaptive_step(state, cfg, snap)
    np.testing.assert_allclose(state.w.ravel(), [2.0, 2.0])


def test_consensus_two_node_hand_example():
    t = pair_topology()
    a = half_matrix(t)
    state = init_state(consensus_lms_config(a, 1.0), 1)
    snap = Snapshot(d=np.array([1.0, 3.0]), u=np.ones((2, 1)), v=np.zeros(2))
    state = consensus_lms_step(state, a, np.ones(2), snap)
    np.testing.assert_allclose(state.w.ravel(), [1.0, 3.0])


def test_consensus_identity_reduces_to_lms():
    rng = np.random.default_rng(2)
    model = generate_model(rng, 3, 2)
    eye = identity_combination(3)
    s1 = init_state(consensus_lms_config(eye, 0.05), 2)
    s2 = init_state(non_cooperative_config(3, 0.05), 2)
    for _ in range(50):
        snap = sample_snapshot(model, rng)
        s1 = consensus_lms_step(s1, eye, np.full(3, 0.05), snap)
        s2 = adaptive_step(s2, non_cooperative_config(3, 0.05), snap)
    np.testing.assert_allclose(s1.w, s2.w, atol=1e-14)


def test_reduction_identities_bitwise():
    rng = np.random.default_rng(3)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "relative_degree").transpose()
    eye = identity_combination(4, t)
    pairs = [
        (atc_config(a, c, 0.03), general_config(eye, a, c, 0.03)),
        (cta_config(a, c, 0.03), general_config(a, eye, c, 0.03)),
        (non_cooperative_config(4, 0.03), general_config(eye, eye, eye, 0.03)),
    ]
    for cfg_x, cfg_y in pairs:
        sx, sy = init_state(cfg_x, 2), init_state(cfg_y, 2)
        rng2 = np.random.default_rng(99)
        for _ in range(30):
            snap = sample_snapshot(model, rng2)
            sx = adaptive_step(sx, cfg_x, snap)
            sy = adaptive_step(sy, cfg_y, snap)
            assert np.array_equal(sx.w, sy.w)


def test_zero_link_draws_bit_identical():
    rng = np.random.default_rng(4)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    lm0 = zero_link_noise(4, 2)
    cfg_noisy = general_config(a, a, c, 0.05, link_noise=lm0)
    cfg_clean = general_config(a, a, c, 0.05)
    s1, s2 = init_state(cfg_noisy, 2), init_state(cfg_clean, 2)
    for _ in range(50):
        snap = sample_snapshot(model, rng)
        draws = sample_link_noise(lm0, rng)
        s1 = adaptive_step(s1, cfg_noisy, snap, draws)
        s2 = adaptive_step(s2, cfg_clean, snap)
        assert np.array_equal(s1.w, s2.w)


def test_link_draws_required_when_configured():
    t = pair_topology()
    cfg = atc_config(half_matrix(t), identity_combination(2, t), 0.1, link_noise=zero_link_noise(2, 1))
    snap = Snapshot(d=np.zeros(2), u=np.ones((2, 1)), v=np.zeros(2))
    with pytest.raises(PreconditionError):
        adaptive_step(init_state(cfg, 1), cfg, snap)


def test_mean_convergence_rate_bounded_by_rho_b():
    from diffnet import analysis

    rng = np.random.default_rng(5)
    t = graph.random_connected_topology(3, rng)
    model = generate_model(rng, 3, 2)
    a = combiners.build_combination(t, "metropolis")
    cfg = atc_config(a, identity_combination(3, t), 0.08)
    moments = analysis.build_moments(model, cfg)
    rho_b = analysis.variance_constructs(moments, cfg).rho_b

    trials, iters = 200, 120
    mean_err = np.zeros((iters, 3, 2))
    for trial_rng in diffusion.trial_rngs(31, trials):
        state = init_state(cfg, 2)
        for i in range(iters):
            state = adaptive_step(state, cfg, sample_snapshot(model, trial_rng))
            mean_err[i] += model.wo[None, :] - state.w
    mean_err /= trials
    norms = np.linalg.norm(mean_err.reshape(iters, -1), axis=1)
    lo, hi = 10, 60
    rate = np.exp(np.polyfit(np.arange(lo, hi), np.log(norms[lo:hi]), 1)[0])
    assert rate <= rho_b + 0.02


def test_rate_enhancement_over_noncooperative():
    # with doubly stochastic C and a uniform step size under the local bound,
    # the diffusion mean dynamics are never slower than the stand-alone ones
    from diffnet import analysis

    rng = np.random.default_rng(6)
    for _ in range(500):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        t = graph.random_connected_topology(n, rng)
        model = generate_model(rng, n, m)
        a1 = combiners.build_combination(t, "averaging")
        a2 = combiners.build_combination(t, "relative_degree")
        c = combiners.build_combination(t, "metropolis")
        mu = 0.95 * 2.0 / np.linalg.eigvalsh(model.ru).max()
        cfg = general_config(a1, a2, c, mu)
        moments = analysis.build_moments(model, cfg)
        b = analysis.variance_constructs(moments, cfg).b
        noncoop = np.eye(n * m) - moments.mblk @ moments.ru
        rho_diff = np.abs(np.linalg.eigvals(b)).max()
        rho_non = np.abs(np.linalg.eigvals(noncoop)).max()
        assert rho_diff <= rho_non + 1e-10


def test_consensus_average_complete_graph():
    a = CombinationMatrix(np.full((3, 3), 1.0 / 3.0), "doubly")
    z = consensus_average(a, np.array([0.0, 3.0, 6.0]), 1)
    np.testing.assert_allclose(z, [3.0, 3.0, 3.0], atol=1e-15)


def test_consensus_average_permutation_oscillates():
    a = CombinationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "doubly")
    z0 = np.array([0.0, 2.0])
    assert np.array_equal(consensus_average(a, z0, 100), z0)
    assert np.array_equal(consensus_average(a, z0, 101), z0[::-1])
    errs = consensus_error_curve(a, z0, 50)
    assert errs.min() > 0.5  # never approaches the average


def test_consensus_rate_matches_second_eigenvalue():
    from diffnet.stochmat import second_eigenvalue_magnitude

    t = graph.topology_from_dict({"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]})
    a = combiners.build_combination(t, "metropolis")
    errs = consensus_error_curve(a, np.random.default_rng(7).standard_normal((5, 2)), 300)
    rate = fit_geometric_rate(errs)
    lam2 = second_eigenvalue_magnitude(a)
    assert abs(rate - lam2) / lam2 < 0.02


def test_consensus_preserves_sum():
    rng = np.random.default_rng(8)
    t = graph.random_connected_topology(6, rng)
    a = combiners.build_combination(t, "metropolis")
    z = rng.standard_normal((6, 2))
    total = z.sum(axis=0)
    for _ in range(50):
        z = consensus_average(a, z, 1)
        np.testing.assert_allclose(z.sum(axis=0), total, atol=1e-12)


def _smoothing_cfg(t, a, order, f, q, mu):
    return general_config(
        identity_combination(t.n, t),
        a,
        identity_combination(t.n, t),
        mu,
        smoothing=SmoothingConfig(order=order, f=np.asarray(f, dtype=float), q=np.asarray(q, dtype=float)),
    )


def test_smoothing_depth_one_reduces_to_atc_and_cta():
    rng = np.random.default_rng(9)
    t = graph.random_connected_topology(3, rng)
    model = generate_model(rng, 3, 2)
    a = combiners.build_combination(t, "metropolis")
    for order in ("TAS", "ATS", "AST"):
        cfg_s = _smoothing_cfg(t, a, order, [[1.0]], [1.0], 0.05)
        cfg_r = atc_config(a, identity_combination(3, t), 0.05)
        _assert_same_trajectory(model, cfg_s, cfg_r, smoothing=True)
    for order in ("TSA", "STA", "SAT"):
        cfg_s = _smoothing_cfg(t, a, order, [[1.0]], [1.0], 0.05)
        cfg_r = cta_config(a, identity_combination(3, t), 0.05)
        _assert_same_trajectory(model, cfg_s, cfg_r, smoothing=True)


def _assert_same_trajectory(model, cfg_s, cfg_r, smoothing):
    s, r = init_state(cfg_s, model.m), init_state(cfg_r, model.m)
    rng = np.random.default_rng(55)
    for _ in range(40):
        snap = sample_snapshot(model, rng)
        s = smoothing_step(s, cfg_s, snap)
        r = adaptive_step(r, cfg_r, snap)
        assert np.array_equal(s.w, r.w)


def _reference_ats(model, a_entries, f, q, mu, snaps):
    """Independent ATS implementation: adapt, filter own history, combine."""
    n, m = model.n, model.m
    w = np.zeros((n, m))
    hist = []
    for snap in snaps:
        phi = np.empty((n, m))
        for k in range(n):
            err = snap.d[k] - snap.u[k] @ w[k]
            phi[k] = w[k] + mu * q[k] * err * snap.u[k]
        hist.insert(0, phi)
        hist = hist[: f.shape[1]]
        taps = f[:, : len(hist)]
        taps = taps / taps.sum(axis=1, keepdims=True)
        psi = sum(taps[:, j][:, None] * hist[j] for j in range(len(hist)))
        w = a_entries.T @ psi
    return w


def test_smoothing_ats_matches_reference():
    rng = np.random.default_rng(10)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "averaging")
    f = np.tile([0.5, 0.3, 0.2], (4, 1))
    q = np.full(4, 0.8)
    cfg = _smoothing_cfg(t, a, "ATS", f, q, 0.05)
    snaps = [sample_snapshot(model, rng) for _ in range(25)]
    state = init_state(cfg, 2)
    for snap in snaps:
        state = smoothing_step(state, cfg, snap)
    ref = _reference_ats(model, a.entries, f, q, 0.05, snaps)
    np.testing.assert_allclose(state.w, ref, atol=1e-13)
    assert len(state.history) == 3


def test_smoothing_t_stage_idempotent_on_constant_history():
    # with all stored vectors equal, the convex filter returns that vector
    t = pair_topology()
    a = half_matrix(t)
    cfg = _smoothing_cfg(t, a, "ATS", np.tile([0.5, 0.5], (2, 1)), [1.0, 1.0], 0.0)
    state = init_state(cfg, 1)
    state.w = np.array([[2.0], [4.0]])
    snap = Snapshot(d=np.zeros(2), u=np.zeros((2, 1)), v=np.zeros(2))
    # mu = 0 so the A stage is the identity and phi stays constant
    for _ in range(3):
        state = smoothing_step(state, cfg, snap)
        np.testing.assert_allclose(state.w, a.entries.T @ np.array([[2.0], [4.0]]))


def test_smoothing_config_validation():
    with pytest.raises(ValidationError):
        SmoothingConfig(order="XYZ", f=np.array([[1.0]]), q=np.array([1.0]))
    with pytest.raises(ValidationError):
        SmoothingConfig(order="ATS", f=np.array([[0.5, 0.2]]), q=np.array([1.0]))
    with pytest.raises(ValidationError):
        SmoothingConfig(order="ATS", f=np.array([[1.0]]), q=np.array([0.0]))


def test_generic_cost_quadratic_equivalence_bitwise():
    rng = np.random.default_rng(11)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    cfg = general_config(a, a, c, 0.05)
    s1, s2 = init_state(cfg, 2), init_state(cfg, 2)
    oracle = lambda l, w: model.ru[l] @ w - model.rdu[l]
    for _ in range(100):
        s1 = steepest_descent_step(s1, cfg, model)
        s2 = generic_cost_step(s2, cfg, oracle)
        assert np.array_equal(s1.w, s2.w)


def test_generic_cost_quartic_converges_to_common_minimizer():
    rng = np.random.default_rng(12)
    t = graph.random_connected_topology(4, rng)
    a = combiners.build_combination(t, "metropolis")
    cfg = atc_config(a, identity_combination(4, t), 0.05)
    wo = np.array([0.7, -0.4])
    coeff = rng.uniform(0.5, 2.0, 4)

    def cost_total(w):
        return sum(((w - wo) ** 4).sum() + coeff[l] * ((w - wo) ** 2).sum() for l in range(4))

    def oracle(l, w):
        return 4.0 * (w - wo) ** 3 + 2.0 * coeff[l] * (w - wo)

    # independent solver for the global minimizer
    res = scipy.optimize.minimize(cost_total, np.zeros(2), tol=1e-14)
    state = init_state(cfg, 2)
    for _ in range(3000):
        state = generic_cost_step(state, cfg, oracle)
    assert np.abs(state.w - res.x[None, :]).max() < 1e-8


def test_generic_cost_zero_gradient_is_identity():
    t = pair_topology()
    cfg = non_cooperative_config(2, 0.1)
    state = init_state(cfg, 2)
    state.w = np.array([[1.0, 2.0], [3.0, 4.0]])
    w0 = state.w.copy()
    state = generic_cost_step(state, cfg, lambda l, w: np.zeros(2))
    np.testing.assert_array_equal(state.w, w0)


def test_step_size_bounds():
    model = EnsembleModel(
        wo=np.array([1.0]), ru=np.full((3, 1, 1), 2.0), sigma2_v=np.full(3, 0.01)
    )
    bounds = step_size_bounds(model, identity_combination(3))
    np.testing.assert_allclose(bounds, 1.0)

    rng = np.random.default_rng(13)
    t = graph.random_connected_topology(5, rng)
    model = generate_model(rng, 5, 2)
    c = combiners.build_combination(t, "metropolis")
    bounds = step_size_bounds(model, c)
    floor = 2.0 / np.linalg.eigvalsh(model.ru).max()
    assert np.all(bounds >= floor - 1e-12)


def test_generic_step_bound_noise_free_case():
    c = identity_combination(3)
    lam_max = np.array([2.0, 4.0, 1.0])
    np.testing.assert_allclose(
        generic_step_bound(0.5 * lam_max, lam_max, c, alpha=0.0), 2.0 / lam_max
    )
    noisy = generic_step_bound(0.5 * lam_max, lam_max, c, alpha=1.0)
    assert np.all(noisy < 2.0 / lam_max)


def test_divergence_sentinel():
    rng = np.random.default_rng(14)
    model = generate_model(rng, 3, 2)
    bound = step_size_bounds(model, identity_combination(3))
    cfg = non_cooperative_config(3, 1.01 * bound)
    res = simulate_trial(model, cfg, 20000, np.random.default_rng(0))
    assert res.diverged
    assert np.isinf(res.msd_node[-1]).all()


def per_step_trial(model, cfg, iterations, rng, topology=None):
    """Reference trial loop: the error metrics and the sentinel after every step."""
    state = init_state(cfg, model.m, topology=topology)
    msd_node = np.empty((iterations, model.n))
    emse_node = np.empty((iterations, model.n))
    sentinel2 = (diffusion.SENTINEL * (1.0 + np.linalg.norm(model.wo))) ** 2
    diverged_at = None
    for i in range(iterations):
        snap = sample_snapshot(model, rng)
        if cfg.variant == diffusion.CONSENSUS_LMS:
            state = consensus_lms_step(state, cfg.a2, cfg.mu, snap)
        elif cfg.smoothing is not None:
            state = smoothing_step(state, cfg, snap)
        elif cfg.link_noise is not None:
            state = adaptive_step(state, cfg, snap, sample_link_noise(cfg.link_noise, rng))
        else:
            state = adaptive_step(state, cfg, snap)
        err = model.wo[None, :] - state.w
        msd_node[i] = (err**2).sum(axis=1)
        emse_node[i] = np.einsum("km,kmn,kn->k", err, model.ru, err)
        scale = (state.w**2).sum()
        if scale > sentinel2 or not np.isfinite(scale):
            diverged_at = i
            msd_node[i + 1:] = np.inf
            emse_node[i + 1:] = np.inf
            break
    return msd_node, emse_node, state, diverged_at


def _variant_configs(t, m, rng):
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "metropolis")
    eye = identity_combination(t.n, t)
    return {
        "atc": atc_config(a, c, 0.05),
        "noisy_links": general_config(
            a, a, c, 0.05, link_noise=random_link_noise(t, m, rng, w_scale=1e-3)
        ),
        "adaptive_weights": atc_config(a, eye, 0.05, adaptive_weights=AdaptiveWeightConfig()),
        "consensus_lms": consensus_lms_config(a, 0.05),
        "smoothing": atc_config(
            a, c, 0.05, smoothing=SmoothingConfig(order="TSA", f=[[0.5, 0.3, 0.2]], q=1.0)
        ),
    }


@pytest.mark.parametrize("variant", ["atc", "noisy_links", "adaptive_weights", "consensus_lms", "smoothing"])
def test_blocked_trial_matches_per_step_oracle(variant):
    rng = np.random.default_rng(41)
    t = graph.random_connected_topology(6, rng)
    model = generate_model(rng, 6, 3)
    cfg = _variant_configs(t, 3, rng)[variant]
    res = simulate_trial(model, cfg, 150, np.random.default_rng(42), topology=t)
    msd, emse, state, diverged_at = per_step_trial(model, cfg, 150, np.random.default_rng(42), t)
    assert res.diverged_at is diverged_at is None
    np.testing.assert_array_equal(res.msd_node, msd)
    np.testing.assert_array_equal(res.emse_node, emse)
    np.testing.assert_array_equal(res.state.w, state.w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "variant, mu_scale, block",
    [
        ("non_cooperative", 0.8, 1),  # slow growth: crosses in the second block
        ("adaptive_weights", 1.3, 4),
        ("non_cooperative", 1e5, 0),  # the rest of the block overflows to inf and NaN
    ],
)
def test_blocked_trial_divergence_matches_per_step_oracle(variant, mu_scale, block):
    rng = np.random.default_rng(14)
    t = graph.random_connected_topology(3, rng)
    model = generate_model(rng, 3, 2)
    mu = mu_scale * step_size_bounds(model, identity_combination(3))
    if variant == "non_cooperative":
        cfg = non_cooperative_config(3, mu)
    else:
        a = combiners.build_combination(t, "metropolis")
        cfg = atc_config(a, identity_combination(3, t), mu, adaptive_weights=AdaptiveWeightConfig())
    iterations = 20000
    res = simulate_trial(model, cfg, iterations, np.random.default_rng(0), topology=t)
    msd, emse, _, diverged_at = per_step_trial(model, cfg, iterations, np.random.default_rng(0), t)
    # the divergence lands inside a block, so the block steps on past it
    assert diverged_at // 64 == block and diverged_at % 64 != 63
    assert res.diverged and res.diverged_at == diverged_at
    np.testing.assert_array_equal(res.msd_node, msd)
    np.testing.assert_array_equal(res.emse_node, emse)
    assert np.isinf(res.msd_node[diverged_at + 1:]).all()


def test_run_trials_deterministic():
    rng = np.random.default_rng(15)
    model = generate_model(rng, 3, 2)
    cfg = non_cooperative_config(3, 0.01)
    mc1 = diffusion.run_trials(model, cfg, 100, 5, seed=17)
    mc2 = diffusion.run_trials(model, cfg, 100, 5, seed=17)
    np.testing.assert_array_equal(mc1.msd_node_curve, mc2.msd_node_curve)


def test_adaptive_weights_require_atc_family():
    t = pair_topology()
    a = half_matrix(t)
    with pytest.raises(ValidationError):
        cta_config(a, identity_combination(2, t), 0.1, adaptive_weights=AdaptiveWeightConfig())
