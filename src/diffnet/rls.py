"""Diffusion recursive least-squares and the consensus-based baseline, on
node states stacked over the network.

Estimates are (N, M) arrays and inverse-information matrices (N, M, M); one
call advances every node.  Diffusion RLS runs the batched measurement update
of :mod:`diffnet.kalman` (exponentially weighted RLS is a Kalman filter with
F = lambda^-1/2 I and Q = 0) on the C-weighted neighborhood data, then
combines through A.  Consensus RLS averages the information pairs
(P^-1 + u u', q + d u) with C and solves for every node in one call.
Neighborhood sums (:class:`diffnet.graph.NeighborSum`) visit only nonzero
weights, so a node never reads data it does not receive.

The per-node rank-one and inverse forms that the kernel replaced, and the
batch weighted least-squares solution that single-node RLS must track, are
the test oracles in ``tests/filter_oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Snapshot
from .errors import NumericalError, ValidationError
from .graph import Topology
from .kalman import measurement_update

DELTA_DEFAULT = 1e4
LAMBDA_DEFAULT = 0.995


@dataclass
class RlsState:
    """Stacked estimates and inverse-information matrices of every node.

    ``w`` is the post-combination estimate, ``psi`` the intermediate one.
    Every ``p[k]`` stays symmetric positive-definite; every update
    re-symmetrizes it against floating-point drift.
    """

    w: np.ndarray  # (N, M)
    p: np.ndarray  # (N, M, M)
    lam: float
    psi: np.ndarray  # (N, M)


def init_states(n: int, m: int, lam: float = LAMBDA_DEFAULT, delta: float = DELTA_DEFAULT):
    """Standard initialization: w = 0, P = delta * I."""
    if not (0.0 < lam <= 1.0):
        raise ValidationError("forgetting factor must lie in (0, 1]")
    if delta <= 0:
        raise ValidationError("delta must be positive")
    return RlsState(w=np.zeros((n, m)), p=np.tile(delta * np.eye(m), (n, 1, 1)), lam=lam,
                    psi=np.zeros((n, m)))


def _check_spd(p: np.ndarray):
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"P lost positive definiteness: {exc}") from exc


def _data_information(snapshot: Snapshot):
    """Each node's own data as information: (u_l u_l', d_l u_l)."""
    u, d = snapshot.u, snapshot.d
    return u[:, :, None] * u[:, None, :], d[:, None] * u


def drls_step(states: RlsState, a, c, snapshot: Snapshot) -> RlsState:
    """Diffusion RLS step for every node.

    Node k scales P by 1/lambda and folds in the data of every l with
    c_lk != 0, weighted by c_lk; the nodes then combine their intermediate
    estimates through the columns of A.  ``a`` and ``c`` are
    CombinationMatrix instances.
    """
    s, r = _data_information(snapshot)
    psi, p = measurement_update(
        states.w, states.p / states.lam, c.neighbor_sum(s), c.neighbor_sum(r)
    )
    _check_spd(p)
    return RlsState(w=a.neighbor_sum(psi), p=p, lam=states.lam, psi=psi)


@dataclass
class CrlsState:
    """Consensus-RLS carries the information pairs (P^-1, q) across links."""

    pinv: np.ndarray  # (N, M, M)
    q: np.ndarray  # (N, M)
    psi: np.ndarray  # (N, M)


def init_crls_states(n: int, m: int, delta: float = DELTA_DEFAULT):
    return CrlsState(pinv=np.tile(np.eye(m) / delta, (n, 1, 1)), q=np.zeros((n, m)),
                     psi=np.zeros((n, m)))


def crls_step(states: CrlsState, c, snapshot: Snapshot) -> CrlsState:
    """Consensus-based RLS step (unit forgetting regime).

    Each node averages its neighbors' information pairs together with their
    fresh data outer products.  Sharing (P^-1, q) costs substantially more
    communication than diffusion RLS; see :func:`crls_comm_scalars`.
    """
    s, r = _data_information(snapshot)
    pinv = c.neighbor_sum(states.pinv + s)
    pinv = 0.5 * (pinv + pinv.transpose(0, 2, 1))
    q = c.neighbor_sum(states.q + r)
    try:
        psi = np.linalg.solve(pinv, q[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular information matrix: {exc}") from exc
    return CrlsState(pinv=pinv, q=q, psi=psi)


def drls_comm_scalars(t: Topology, m: int) -> np.ndarray:
    """Scalars received per node per diffusion-RLS step: |N_k| * (1 + M + M)
    for (d_l, u_l, psi_l)."""
    return t.degrees * (1 + 2 * m)


def crls_comm_scalars(t: Topology, m: int) -> np.ndarray:
    """Scalars received per node per consensus-RLS step:
    |N_k| * (M^2 + M + M + 1) for (P_l^-1, q_l, u_l, d_l)."""
    return t.degrees * (m * m + 2 * m + 1)
