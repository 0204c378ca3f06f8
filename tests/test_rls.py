import filter_oracles as oracle
import numpy as np
import pytest

from diffnet import combiners, graph
from diffnet.datamodel import EnsembleModel, Snapshot, generate_model, sample_snapshot
from diffnet.errors import ValidationError
from diffnet.rls import (
    crls_comm_scalars,
    crls_step,
    drls_comm_scalars,
    drls_step,
    init_crls_states,
    init_states,
)
from diffnet.stochmat import identity_combination


def single_node():
    return graph.build_topology(np.zeros((1, 1), dtype=bool))


def test_first_step_regularized_ls():
    # lambda = 1, delta = 1, first datum (u, d) = (1, 1): the estimate
    # minimizes w^2 + (1 - w)^2, i.e. w = 0.5, with P = 0.5
    t = single_node()
    eye = identity_combination(1, t)
    states = init_states(1, 1, lam=1.0, delta=1.0)
    snap = Snapshot(d=np.array([1.0]), u=np.array([[1.0]]), v=np.zeros(1))
    states = drls_step(states, eye, eye, snap)
    assert states.psi[0, 0] == pytest.approx(0.5)
    assert states.p[0, 0, 0] == pytest.approx(0.5)
    # same first step through the inverse form
    states2 = oracle.init_states(1, 1, lam=1.0, delta=1.0)
    states2 = oracle.drls_alt_step(states2, t, eye, eye, snap)
    assert states2[0].psi[0] == pytest.approx(0.5)
    assert states2[0].p[0, 0] == pytest.approx(0.5)


def test_single_node_matches_batch_oracle():
    t = single_node()
    eye = identity_combination(1, t)
    model = EnsembleModel(
        wo=np.array([1.0, -0.5]), ru=np.eye(2)[None], sigma2_v=np.array([0.01])
    )
    rng = np.random.default_rng(0)
    for lam in (1.0, 0.995):
        states = init_states(1, 2, lam=lam, delta=1e4)
        us, ds = [], []
        for i in range(500):
            snap = sample_snapshot(model, rng)
            us.append(snap.u[0])
            ds.append(snap.d[0])
            states = drls_step(states, eye, eye, snap)
            if (i + 1) % 100 == 0:
                batch = oracle.batch_weighted_ls(np.array(us), np.array(ds), lam, 1e4)
                assert np.abs(batch - states.w[0]).max() < 1e-6


def test_single_node_converges_at_high_snr():
    t = single_node()
    eye = identity_combination(1, t)
    model = EnsembleModel(
        wo=np.array([1.0, -0.5]), ru=np.eye(2)[None], sigma2_v=np.array([0.0125])
    )  # SNR = ||wo||^2 / sigma2 = 20 dB
    rng = np.random.default_rng(1)
    states = init_states(1, 2, lam=1.0, delta=1e4)
    for _ in range(2000):
        states = drls_step(states, eye, eye, sample_snapshot(model, rng))
    assert np.abs(states.w[0] - model.wo).max() < 1e-1
    batch_err = np.abs(states.w[0] - model.wo).max()
    assert batch_err == pytest.approx(batch_err)  # finite


def test_forms_agree_over_500_steps():
    # the batched kernel against the per-node rank-one and inverse forms
    rng = np.random.default_rng(2)
    t = graph.random_connected_topology(5, rng)
    model = generate_model(rng, 5, 3)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    s1 = init_states(5, 3, lam=0.995, delta=100.0)
    s2 = oracle.init_states(5, 3, lam=0.995, delta=100.0)
    s3 = oracle.init_states(5, 3, lam=0.995, delta=100.0)
    for _ in range(500):
        snap = sample_snapshot(model, rng)
        s1 = drls_step(s1, a, c, snap)
        s2 = oracle.drls_alt_step(s2, t, a, c, snap)
        s3 = oracle.drls_step(s3, t, a, c, snap)
        for ref in (s2, s3):
            assert np.abs(s1.w - oracle.stack(ref, "w")).max() < 1e-8
            assert np.abs(s1.p - oracle.stack(ref, "p")).max() < 1e-8


def test_identity_c_touches_only_local_data():
    # with C = I, the update must never read neighbor data: feeding NaNs at
    # other nodes leaves node k's intermediate estimate finite
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    eye = identity_combination(3, t)
    a = combiners.build_combination(t, "averaging")
    states = init_states(3, 2, lam=1.0, delta=1.0)
    u = np.full((3, 2), np.nan)
    d = np.full(3, np.nan)
    u[1] = [1.0, 2.0]
    d[1] = 1.0
    states = drls_step(states, a, eye, Snapshot(d=d, u=u, v=np.zeros(3)))
    assert np.all(np.isfinite(states.psi[1]))
    assert np.all(np.isfinite(states.p[1]))


def test_crls_single_node_equals_drls_at_unit_lambda():
    t = single_node()
    eye = identity_combination(1, t)
    model = EnsembleModel(
        wo=np.array([0.7, 0.2]), ru=np.eye(2)[None], sigma2_v=np.array([0.01])
    )
    rng = np.random.default_rng(3)
    d_states = init_states(1, 2, lam=1.0, delta=50.0)
    c_states = init_crls_states(1, 2, delta=50.0)
    for _ in range(200):
        snap = sample_snapshot(model, rng)
        d_states = drls_step(d_states, eye, eye, snap)
        c_states = crls_step(c_states, eye, snap)
        assert np.abs(d_states.psi[0] - c_states.psi[0]).max() < 1e-8


def test_comm_scalar_counts():
    t = graph.topology_from_dict({"n": 3, "edges": [[1, 2], [2, 3]]})
    m = 4
    np.testing.assert_array_equal(drls_comm_scalars(t, m), t.degrees * (1 + 2 * m))
    np.testing.assert_array_equal(crls_comm_scalars(t, m), t.degrees * (m * m + 2 * m + 1))
    assert np.all(crls_comm_scalars(t, m) > drls_comm_scalars(t, m))


def test_crls_msd_not_better_than_drls():
    # uniform 10-node scenario, unit forgetting: the diffusion form tracks at
    # least as well as the consensus form in steady state
    rng = np.random.default_rng(4)
    t = graph.random_connected_topology(10, rng, 0.3)
    ru = np.eye(2)
    model = EnsembleModel(
        wo=np.array([1.0, -1.0]) / np.sqrt(2.0),
        ru=np.tile(ru, (10, 1, 1)),
        sigma2_v=np.full(10, 0.05),
    )
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    trials, iters, window = 100, 120, 20
    acc_d, acc_c = 0.0, 0.0
    for seed in range(trials):
        rng_t = np.random.default_rng(1000 + seed)
        d_states = init_states(10, 2, lam=1.0, delta=1e4)
        c_states = init_crls_states(10, 2, delta=1e4)
        for i in range(iters):
            snap = sample_snapshot(model, rng_t)
            d_states = drls_step(d_states, a, c, snap)
            c_states = crls_step(c_states, c, snap)
            if i >= iters - window:
                acc_d += float(((d_states.w - model.wo) ** 2).sum())
                acc_c += float(((c_states.psi - model.wo) ** 2).sum())
    assert acc_c >= acc_d


def test_p_stays_spd():
    rng = np.random.default_rng(5)
    t = graph.random_connected_topology(4, rng)
    model = generate_model(rng, 4, 2)
    a = combiners.build_combination(t, "metropolis")
    c = combiners.build_combination(t, "averaging").transpose()
    states = init_states(4, 2, lam=0.99, delta=10.0)
    for _ in range(300):
        states = drls_step(states, a, c, sample_snapshot(model, rng))
    for p in states.p:
        np.linalg.cholesky(p)  # raises if not SPD
        assert np.abs(p - p.T).max() == 0.0


def test_init_validation():
    with pytest.raises(ValidationError):
        init_states(2, 2, lam=0.0)
    with pytest.raises(ValidationError):
        init_states(2, 2, delta=-1.0)
