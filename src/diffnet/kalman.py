"""Diffusion Kalman filtering, the consensus combination baseline, and a
centralized oracle, on node states stacked over the network.

A node state is stacked over the N nodes: estimates are (N, n) arrays and
the carried P matrices (N, n, n).  Every step runs one batched kernel,
:func:`measurement_update`, which folds each node's neighborhood information
into its prediction; diffusion RLS (:mod:`diffnet.rls`) runs the same kernel,
since exponentially weighted RLS is a Kalman filter with F = lambda^-1/2 I
and Q = 0.  Neighborhood sums (:class:`diffnet.graph.NeighborSum`) visit only
nonzero weights, so a node never reads data it does not receive.

The carried P matrices follow the classical update algebra but are not error
covariances once combination weights enter; they are kept symmetric
explicitly.  The per-node time/measurement and information forms that the
kernel replaced are the test oracles in ``tests/filter_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, PreconditionError, ValidationError
from .graph import Topology
from .stochmat import LEFT, CombinationMatrix


@dataclass(frozen=True)
class StateSpaceModel:
    """Linear state-space model observed by N nodes.

    ``x_{i+1} = F x_i + G n_i`` with per-node measurements
    ``y_k = H_k x + v_k``; measurement covariances must be positive-definite
    and R_k^-1 H_k must be finite.
    The derived stacks ``rinv_h`` (R_k^-1 H_k), ``info`` (H_k' R_k^-1 H_k)
    and ``r_chol`` (Cholesky factors of R_k), the block-diagonal ``r_block``
    of all nodes' R_k and the process covariance ``gqg`` (G Q G') are
    computed once here.
    """

    f: np.ndarray  # (n, n)
    g: np.ndarray  # (n, q)
    h: np.ndarray  # (N, p, n)
    q: np.ndarray  # (q, q) process noise covariance
    r: np.ndarray  # (N, p, p) measurement noise covariances
    pi0: np.ndarray  # (n, n) initial state covariance
    rinv_h: np.ndarray = field(init=False, repr=False)  # (N, p, n)
    info: np.ndarray = field(init=False, repr=False)  # (N, n, n)
    r_chol: np.ndarray = field(init=False, repr=False)  # (N, p, p)
    r_block: np.ndarray = field(init=False, repr=False)  # (N p, N p)
    gqg: np.ndarray = field(init=False, repr=False)  # (n, n)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        qm = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        pi0 = np.asarray(self.pi0, dtype=float)
        n = f.shape[0] if f.ndim == 2 else -1
        if f.shape != (n, n) or g.ndim != 2 or g.shape[0] != n or pi0.shape != (n, n):
            raise ValidationError("inconsistent state dimensions")
        if qm.shape != (g.shape[1], g.shape[1]):
            raise ValidationError(f"q must be ({g.shape[1]}, {g.shape[1]}) to match g, got {qm.shape}")
        if h.ndim != 3 or h.shape[2] != n or r.shape != (h.shape[0], h.shape[1], h.shape[1]):
            raise ValidationError("inconsistent measurement dimensions")
        r_chol = np.empty_like(r)
        for k in range(r.shape[0]):
            try:
                r_chol[k] = np.linalg.cholesky(r[k])
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"R[{k}] must be positive-definite") from exc
        try:
            np.linalg.cholesky(pi0)
        except np.linalg.LinAlgError as exc:
            raise ValidationError("pi0 must be positive-definite") from exc
        if np.linalg.eigvalsh(0.5 * (qm + qm.T))[0] < -1e-12:
            raise ValidationError("process covariance must be nonnegative-definite")
        with np.errstate(over="ignore", invalid="ignore"):
            rinv_h = np.linalg.solve(r, h)
            info = h.transpose(0, 2, 1) @ rinv_h
        bad = ~(np.isfinite(rinv_h).all(axis=(1, 2)) & np.isfinite(info).all(axis=(1, 2)))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValidationError(f"R[{k}]^-1 H[{k}] is not finite; R[{k}] is too close to singular")
        n_nodes, p_dim = r.shape[0], r.shape[1]
        r_block = np.zeros((n_nodes, p_dim, n_nodes, p_dim))
        r_block[np.arange(n_nodes), :, np.arange(n_nodes), :] = r
        r_block = r_block.reshape(n_nodes * p_dim, n_nodes * p_dim)
        for name, val in (("f", f), ("g", g), ("h", h), ("q", qm), ("r", r), ("pi0", pi0),
                          ("rinv_h", rinv_h), ("info", info), ("r_chol", r_chol),
                          ("r_block", r_block), ("gqg", g @ qm @ g.T)):
            object.__setattr__(self, name, val)

    @property
    def n_nodes(self) -> int:
        return self.h.shape[0]

    @property
    def state_dim(self) -> int:
        return self.f.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.h.shape[1]


@dataclass
class KfState:
    """Predicted and filtered estimates.

    The distributed filters stack every field over the nodes ((N, n) and
    (N, n, n)); the centralized filter carries one (n,) and (n, n) set.
    ``info_sum`` is every node's neighborhood information
    sum_{l in N_k} H_l' R_l^-1 H_l, fixed for a run: the first distributed
    step computes it and later steps carry it.
    """

    x_pred: np.ndarray
    p_pred: np.ndarray
    x_filt: np.ndarray | None = None
    p_filt: np.ndarray | None = None
    psi: np.ndarray | None = None
    info_sum: np.ndarray | None = field(default=None, repr=False)


def init_kf_states(model: StateSpaceModel) -> KfState:
    """Zero initial prediction with covariance pi0 at every node."""
    n_nodes, n = model.n_nodes, model.state_dim
    return KfState(x_pred=np.zeros((n_nodes, n)), p_pred=np.tile(model.pi0, (n_nodes, 1, 1)))


def _sym(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (mats @ vecs[..., None])[..., 0]


def measurement_update(x, p, s_bar, r_bar):
    """Fold neighborhood information into every node's prediction.

    With S_k = sum_l w_lk S_l and r_k = sum_l w_lk r_l, returns
    ``psi = x + P_f (r - S x)`` and ``P_f = (I + P S)^-1 P``, symmetrized,
    both from one solve with I + P S: the covariance form of the information
    update ``P_f^-1 = P^-1 + S``, which needs no P^-1 and so accepts a
    singular P.  The correction of psi is an extra right-hand column of that
    solve rather than a product with the rounded P_f, which keeps early,
    ill-conditioned RLS steps accurate.  Raises NumericalError when I + P S
    is singular.
    """
    eye = np.eye(x.shape[-1])
    rhs = np.concatenate([p, _matvec(p, r_bar - _matvec(s_bar, x))[..., None]], axis=-1)
    try:
        sol = np.linalg.solve(eye + p @ s_bar, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular measurement update: {exc}") from exc
    return x + sol[..., -1], _sym(sol[..., :-1])


def _time_update(model: StateSpaceModel, psi, x_filt, p_filt, info_sum=None) -> KfState:
    f = model.f
    return KfState(x_pred=x_filt @ f.T, p_pred=_sym(f @ p_filt @ f.T + model.gqg),
                   x_filt=x_filt, p_filt=p_filt, psi=psi, info_sum=info_sum)


def _diffuse(states: KfState, t: Topology, a, model: StateSpaceModel, y) -> KfState:
    """Measurement update of every node over its whole neighborhood N_k,
    combination through the columns of ``a``, then the time update."""
    info_sum = states.info_sum
    if info_sum is None:
        info_sum = t.neighborhood_sum(model.info)
    r = t.neighborhood_sum(np.einsum("kpn,kp->kn", model.rinv_h, np.asarray(y, dtype=float)))
    psi, p_filt = measurement_update(states.x_pred, states.p_pred, info_sum, r)
    return _time_update(model, psi, a.neighbor_sum(psi), p_filt, info_sum)


def dkf_tm_step(states: KfState, t: Topology, a, model: StateSpaceModel, y) -> KfState:
    """Diffusion Kalman step for every node.

    Each node updates its prediction with all measurements of N_k, the nodes
    combine the intermediate estimates through the columns of A (a
    CombinationMatrix), and the time update propagates the combined estimate
    with the node's own P_f.
    """
    return _diffuse(states, t, a, model, y)


def ckf_weights(t: Topology, epsilon: float) -> CombinationMatrix:
    """Consensus combination weights: (1 + eps - n_k eps) on the node's own
    estimate and eps on each neighbor's.

    The weights sum to one by construction; eps must be small enough that no
    self-weight goes negative.
    """
    self_w = 1.0 + epsilon - t.degrees * epsilon
    if np.any(self_w < 0):
        raise PreconditionError(
            f"epsilon={epsilon} gives a negative self-weight (max degree {t.max_degree})"
        )
    weights = np.where(t.adjacency, epsilon, 0.0)
    np.fill_diagonal(weights, self_w)
    return CombinationMatrix(weights, LEFT, supported_on=t)


def ckf_step(states: KfState, t: Topology, model: StateSpaceModel, y, weights) -> KfState:
    """Consensus-Kalman baseline: the same neighborhood update followed by
    the epsilon combination (``weights`` from :func:`ckf_weights`) instead of
    the diffusion weights."""
    return _diffuse(states, t, weights, model, y)


def centralized_kf_step(state: KfState, model: StateSpaceModel, y) -> KfState:
    """Classical covariance-form filter over all nodes' stacked measurements.

    Performance oracle: its tracking error lower-bounds every distributed
    variant, and for N = 1 it coincides with the diffusion filters.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    h = model.h.reshape(-1, model.state_dim)
    re = _sym(model.r_block + h @ state.p_pred @ h.T)
    try:
        re_chol = np.linalg.cholesky(re)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("stacked innovation covariance not PD") from exc
    gain = np.linalg.solve(re_chol.T, np.linalg.solve(re_chol, h @ state.p_pred)).T
    x_filt = state.x_pred + gain @ (y - h @ state.x_pred)
    p_filt = _sym(state.p_pred - gain @ h @ state.p_pred)
    return _time_update(model, x_filt, x_filt, p_filt)


def simulate_state_trajectory(model: StateSpaceModel, steps: int, rng):
    """Sample a state trajectory and per-node measurements.

    Returns ``(xs, ys)`` with shapes (steps, n) and (steps, N, p); the state
    sequence starts from a draw with covariance pi0.  Step i draws the N
    measurement noises and then the process noise, in that order.
    """
    n, n_nodes, p_dim = model.state_dim, model.n_nodes, model.meas_dim
    x = np.linalg.cholesky(model.pi0) @ rng.standard_normal(n)
    q_chol = _psd_chol(model.q)
    noise = rng.standard_normal((steps, n_nodes * p_dim + model.q.shape[0]))
    v, w = noise[:, : n_nodes * p_dim].reshape(steps, n_nodes, p_dim), noise[:, n_nodes * p_dim :]
    xs = np.empty((steps, n))
    for i in range(steps):
        xs[i] = x
        x = model.f @ x + model.g @ (q_chol @ w[i])
    ys = _matvec(model.h, xs[:, None, :]) + _matvec(model.r_chol, v)
    return xs, ys


def _psd_chol(q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_sym(np.asarray(q, dtype=float)))
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
