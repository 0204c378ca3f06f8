import filter_oracles as oracle
import numpy as np
import pytest

from diffnet import combiners, graph
from diffnet.errors import NumericalError, PreconditionError, ValidationError
from diffnet.kalman import (
    KfState,
    StateSpaceModel,
    centralized_kf_step,
    ckf_weights,
    ckf_step,
    dkf_tm_step,
    init_kf_states,
    simulate_state_trajectory,
)
from diffnet.stochmat import identity_combination


def single_node():
    return graph.build_topology(np.zeros((1, 1), dtype=bool))


def random_model(rng, n_nodes, n=4, p=2):
    f = np.array([[1, 0, 0.1, 0], [0, 1, 0, 0.1], [0, 0, 0.95, 0], [0, 0, 0, 0.95]])
    g = np.vstack([np.zeros((2, 2)), np.eye(2)])
    h = np.tile(np.hstack([np.eye(2), np.zeros((2, 2))]), (n_nodes, 1, 1))
    h = h + 0.1 * rng.standard_normal((n_nodes, 2, 4))
    q = 0.01 * np.eye(2)
    r = np.array([(0.3 + rng.random()) * np.eye(2) for _ in range(n_nodes)])
    return StateSpaceModel(f=f, g=g, h=h, q=q, r=r, pi0=np.eye(4))


def test_scalar_single_measurement_update():
    # F=1, G=0, H=1, R=1, Pi0=1, y=2 from x_pred=0:
    # Re=2, gain=1/2, psi=1, P=1/2; time update keeps both
    model = StateSpaceModel(
        f=np.eye(1), g=np.zeros((1, 1)), h=np.ones((1, 1, 1)),
        q=np.zeros((1, 1)), r=np.ones((1, 1, 1)), pi0=np.eye(1),
    )
    t = single_node()
    eye = identity_combination(1, t)
    states = init_kf_states(model)
    st = dkf_tm_step(states, t, eye, model, np.array([[2.0]]))
    assert st.psi[0, 0] == pytest.approx(1.0)
    assert st.p_filt[0, 0, 0] == pytest.approx(0.5)
    assert st.x_pred[0, 0] == pytest.approx(1.0)
    assert st.p_pred[0, 0, 0] == pytest.approx(0.5)
    # information form computes the same numbers: S=1, q=2
    states2 = oracle.init_kf_states(model)
    states2 = oracle.dkf_info_step(states2, t, eye, model, np.array([[2.0]]))
    assert states2[0].psi[0] == pytest.approx(1.0)
    assert states2[0].p_filt[0, 0] == pytest.approx(0.5)


def test_single_node_equals_classical_filter():
    rng = np.random.default_rng(0)
    model = random_model(rng, 1)
    t = single_node()
    eye = identity_combination(1, t)
    states = init_kf_states(model)
    central = KfState(x_pred=np.zeros(4), p_pred=model.pi0.copy())
    _, ys = simulate_state_trajectory(model, 300, rng)
    for i in range(300):
        states = dkf_tm_step(states, t, eye, model, ys[i])
        central = centralized_kf_step(central, model, ys[i])
        assert np.abs(states.x_filt[0] - central.x_filt).max() < 1e-10
        assert np.abs(states.p_pred[0] - central.p_pred).max() < 1e-10


def test_tm_and_info_forms_agree():
    # the batched kernel against the per-node time/measurement and information forms
    rng = np.random.default_rng(1)
    t = graph.random_connected_topology(5, rng)
    model = random_model(rng, 5)
    a = combiners.build_combination(t, "metropolis")
    s_kernel = init_kf_states(model)
    s_tm = oracle.init_kf_states(model)
    s_if = oracle.init_kf_states(model)
    _, ys = simulate_state_trajectory(model, 500, rng)
    for i in range(500):
        s_kernel = dkf_tm_step(s_kernel, t, a, model, ys[i])
        s_tm = oracle.dkf_tm_step(s_tm, t, a, model, ys[i])
        s_if = oracle.dkf_info_step(s_if, t, a, model, ys[i])
        for ref in (s_tm, s_if):
            assert np.abs(s_kernel.x_filt - oracle.stack(ref, "x_filt")).max() < 1e-8
            assert np.abs(s_kernel.p_pred - oracle.stack(ref, "p_pred")).max() < 1e-8


def test_singular_f_matches_time_measurement_oracle():
    # F kills the first state and G drives only the second, so every P_pred
    # from step 1 on is singular: the kernel needs no P^-1, the information
    # form does
    rng = np.random.default_rng(8)
    t = graph.random_connected_topology(5, rng)
    h = rng.standard_normal((5, 1, 2))
    r = np.array([[[0.2 + rng.random()]] for _ in range(5)])
    model = StateSpaceModel(
        f=np.array([[0.0, 0.0], [0.0, 0.9]]), g=np.array([[0.0], [1.0]]), h=h,
        q=np.array([[0.1]]), r=r, pi0=np.eye(2),
    )
    a = combiners.build_combination(t, "metropolis")
    s_kernel = init_kf_states(model)
    s_tm = oracle.init_kf_states(model)
    _, ys = simulate_state_trajectory(model, 100, rng)
    for i in range(100):
        s_kernel = dkf_tm_step(s_kernel, t, a, model, ys[i])
        s_tm = oracle.dkf_tm_step(s_tm, t, a, model, ys[i])
        assert np.abs(s_kernel.x_filt - oracle.stack(s_tm, "x_filt")).max() < 1e-10
        assert np.abs(s_kernel.p_pred - oracle.stack(s_tm, "p_pred")).max() < 1e-10
    assert np.all(s_kernel.p_pred[:, 0, :] == 0.0)
    with pytest.raises(NumericalError):
        oracle.dkf_info_step(s_tm, t, a, model, ys[0])


def test_identity_combination_keeps_nodes_independent():
    rng = np.random.default_rng(2)
    t = graph.build_topology(np.zeros((3, 3), dtype=bool))  # no edges
    model = random_model(rng, 3)
    eye = identity_combination(3, t)
    states = init_kf_states(model)
    _, ys = simulate_state_trajectory(model, 50, rng)
    # node k's trajectory must match a solo filter fed only its own data
    solo_model = StateSpaceModel(
        f=model.f, g=model.g, h=model.h[:1], q=model.q, r=model.r[:1], pi0=model.pi0
    )
    solo = init_kf_states(solo_model)
    t1 = single_node()
    eye1 = identity_combination(1, t1)
    for i in range(50):
        states = dkf_tm_step(states, t, eye, model, ys[i])
        solo = dkf_tm_step(solo, t1, eye1, solo_model, ys[i, :1])
        assert np.abs(states.x_filt[0] - solo.x_filt[0]).max() < 1e-12


def test_ckf_combine_example():
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [1, 3]]})
    psis = np.array([[1.0], [2.0], [3.0]])
    out = ckf_weights(t, 0.1).neighbor_sum(psis)
    # node 1 has degree 3: 0.8 * 1 + 0.1 * 2 + 0.1 * 3 = 1.3
    assert out[0, 0] == pytest.approx(1.3)


def test_ckf_combine_zero_epsilon_identity():
    t = graph.random_connected_topology(4, np.random.default_rng(3))
    psis = np.random.default_rng(4).standard_normal((4, 2))
    np.testing.assert_array_equal(ckf_weights(t, 0.0).neighbor_sum(psis), psis)


def test_ckf_combine_negative_self_weight_rejected():
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]})
    with pytest.raises(PreconditionError):
        ckf_weights(t, 0.6)  # degree 3 -> self weight < 0


def test_ckf_combine_matches_diffusion_with_epsilon_weights():
    rng = np.random.default_rng(5)
    t = graph.random_connected_topology(5, rng)
    model = random_model(rng, 5)
    eps = 0.05
    entries = np.zeros((5, 5))
    entries[t.adjacency] = eps
    np.fill_diagonal(entries, 1.0 + eps - t.degrees * eps)
    from diffnet.stochmat import CombinationMatrix

    a_eps = CombinationMatrix(entries, "left", supported_on=t)
    s_diff = init_kf_states(model)
    s_cons = init_kf_states(model)
    weights = ckf_weights(t, eps)
    np.testing.assert_array_equal(weights.entries, entries)
    _, ys = simulate_state_trajectory(model, 100, rng)
    for i in range(100):
        s_diff = dkf_tm_step(s_diff, t, a_eps, model, ys[i])
        s_cons = ckf_step(s_cons, t, model, ys[i], weights)
        assert np.abs(s_diff.x_filt - s_cons.x_filt).max() < 1e-12


def test_scalar_riccati_fixed_point():
    # single node, scalar model: the predicted variance converges to the
    # fixed point of P = F^2 (P - P^2 / (P + R)) + G^2 Q
    fv, gv, qv, rv = 0.9, 1.0, 0.2, 0.5
    model = StateSpaceModel(
        f=np.array([[fv]]), g=np.array([[gv]]), h=np.ones((1, 1, 1)),
        q=np.array([[qv]]), r=np.array([[[rv]]]), pi0=np.eye(1),
    )
    t = single_node()
    eye = identity_combination(1, t)
    states = init_kf_states(model)
    rng = np.random.default_rng(6)
    _, ys = simulate_state_trajectory(model, 200, rng)
    for i in range(200):
        states = dkf_tm_step(states, t, eye, model, ys[i])
    p = states.p_pred[0, 0, 0]
    # independent fixed-point iteration of the Riccati map
    p_star = 1.0
    for _ in range(10000):
        p_star = fv * fv * (p_star - p_star**2 / (p_star + rv)) + gv * gv * qv
    assert abs(p - p_star) < 1e-8
    assert abs(p - (fv * fv * (p - p * p / (p + rv)) + gv * gv * qv)) < 1e-8


def test_no_measurements_pure_prediction():
    # H = 0: the filter never corrects and P grows by G Q G' each step
    model = StateSpaceModel(
        f=np.eye(2), g=np.eye(2), h=np.zeros((1, 1, 2)),
        q=0.1 * np.eye(2), r=np.ones((1, 1, 1)), pi0=np.eye(2),
    )
    t = single_node()
    eye = identity_combination(1, t)
    states = init_kf_states(model)
    for i in range(5):
        states = dkf_tm_step(states, t, eye, model, np.zeros((1, 1)))
        np.testing.assert_allclose(states.psi[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(states.p_pred[0], (1.0 + 0.1 * (i + 1)) * np.eye(2), atol=1e-12)


def test_trajectory_draws_match_step_by_step_oracle():
    # the batched draw must consume the generator exactly as the per-step,
    # per-node loop does, so fixed-seed data streams do not change
    for seed, n_nodes in ((9, 1), (10, 5)):
        model = random_model(np.random.default_rng(seed), n_nodes)
        xs, ys = simulate_state_trajectory(model, 60, np.random.default_rng(seed))
        xs_ref, ys_ref = oracle.simulate_state_trajectory(model, 60, np.random.default_rng(seed))
        np.testing.assert_array_equal(xs, xs_ref)
        np.testing.assert_array_equal(ys, ys_ref)


def test_model_validation():
    with pytest.raises(ValidationError):
        StateSpaceModel(
            f=np.eye(2), g=np.eye(2), h=np.zeros((1, 1, 2)),
            q=np.eye(2), r=np.zeros((1, 1, 1)), pi0=np.eye(2),
        )

