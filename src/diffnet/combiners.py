"""Combination-weight construction: static rules and online adaptation.

Static rules map a topology (plus optional per-node statistics) to a
combination matrix.  The adaptive rule tracks each neighbor's variance
product ``gamma^2 = mu^2 * sigma_v^2 * Tr(R_u)`` from observed update
increments and weights neighbors by inverse variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .graph import Topology, laplacian
from .stochmat import DOUBLY, LEFT, CombinationMatrix

RULES = (
    "identity",
    "averaging",
    "laplacian",
    "max_degree",
    "metropolis",
    "relative_degree",
    "relative_variance",
    "relative_degree_variance",
)

# floor applied before inverting near-zero variance estimates
VARIANCE_FLOOR = 1e-12


def build_combination(
    t: Topology,
    rule: str,
    *,
    gamma: float | None = None,
    gamma2=None,
    sigma2_v=None,
    tol: float = 1e-12,
) -> CombinationMatrix:
    """Build a combination matrix by a named rule.

    Parameters
    ----------
    rule : str
        One of ``identity`` (no cooperation), ``averaging``, ``laplacian``
        (needs ``gamma``), ``max_degree``,
        ``metropolis``, ``relative_degree``, ``relative_variance`` (needs
        per-node ``gamma2``), ``relative_degree_variance`` (needs per-node
        ``sigma2_v``).
    gamma : float
        Laplacian-rule scale; must satisfy ``0 < gamma <= 1/(n_max - 1)`` so
        diagonal entries stay nonnegative.
    gamma2, sigma2_v : (N,) arrays
        Strictly positive variance inputs for the variance-aware rules.

    Returns a left-stochastic matrix for the degree/variance rules and a
    symmetric doubly stochastic matrix for the identity, Laplacian-family and
    Metropolis rules.
    """
    n = t.n
    deg = t.degrees.astype(float)
    mask = t.adjacency | np.eye(n, dtype=bool)  # (l, k) True iff l in N_k

    if rule == "identity":
        entries = np.eye(n)
        kind = DOUBLY
    elif rule == "averaging":
        entries = mask / deg[None, :]
        kind = LEFT
    elif rule in ("laplacian", "max_degree"):
        if rule == "max_degree":
            gamma = 1.0 / n
        if gamma is None or gamma <= 0:
            raise PreconditionError("laplacian rule needs gamma > 0")
        if t.max_degree > 1 and gamma > 1.0 / (t.max_degree - 1) + tol:
            raise PreconditionError(
                f"gamma={gamma} exceeds 1/(n_max - 1)={1.0 / (t.max_degree - 1)}; "
                "diagonal entries would go negative"
            )
        entries = np.eye(n) - gamma * laplacian(t)
        kind = DOUBLY
    elif rule == "metropolis":
        entries = np.zeros((n, n))
        pair_max = np.maximum(deg[:, None], deg[None, :])
        off = t.adjacency
        entries[off] = 1.0 / pair_max[off]
        np.fill_diagonal(entries, 1.0 - entries.sum(axis=0))
        kind = DOUBLY
    elif rule == "relative_degree":
        weights = deg
        entries = _normalized_columns(weights, mask)
        kind = LEFT
    elif rule == "relative_variance":
        weights = _inverse_positive(gamma2, n, "gamma2")
        entries = _normalized_columns(weights, mask)
        kind = LEFT
    elif rule == "relative_degree_variance":
        weights = deg * _inverse_positive(sigma2_v, n, "sigma2_v")
        entries = _normalized_columns(weights, mask)
        kind = LEFT
    else:
        raise ValidationError(f"unknown combination rule {rule!r}; choose from {RULES}")

    return CombinationMatrix(entries, kind, tol=tol, supported_on=t)


def _inverse_positive(values, n: int, name: str) -> np.ndarray:
    if values is None:
        raise PreconditionError(f"rule requires per-node {name}")
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValidationError(f"{name} must have shape ({n},), got {v.shape}")
    if np.any(v <= 0):
        raise PreconditionError(f"{name} entries must be strictly positive")
    return 1.0 / v


def _normalized_columns(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    entries = np.where(mask, weights[:, None], 0.0)
    return entries / entries.sum(axis=0, keepdims=True)


@dataclass
class VarianceProductState:
    """Running per-link variance-product estimates.

    ``gamma2[l, k]`` is node k's estimate of neighbor l's variance product;
    maintained only on the support ``l in N_k``.  Mutated in place by its
    owning simulation loop (single writer).
    """

    gamma2: np.ndarray
    nu: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        if np.any((self.nu <= 0) | (self.nu >= 1)):
            raise ValidationError("forgetting coefficients nu must lie in (0, 1)")
        if np.any(self.gamma2 < 0):
            raise ValidationError("gamma2 estimates must be nonnegative")


def init_variance_state(t: Topology, nu) -> VarianceProductState:
    """Fresh estimator state: gamma2 = 1 on every maintained pair.

    Unit initialization makes the first combination behave like the
    averaging rule.
    """
    support = t.adjacency | np.eye(t.n, dtype=bool)
    nu_arr = np.broadcast_to(np.asarray(nu, dtype=float), (t.n,)).copy()
    return VarianceProductState(
        gamma2=support.astype(float), nu=nu_arr, support=support
    )


def adapt_weights_all(state: VarianceProductState, psi_received, w_prev):
    """Vectorized weight refresh for every node at once.

    ``psi_received`` is either (N, M) (perfect links: every node sees the
    same psi) or (N, N, M) with entry ``[l, k]`` the copy of psi_l received
    by node k.  Returns ``(state, entries)`` with ``entries`` a
    left-stochastic matrix supported on the topology; estimates below
    ``VARIANCE_FLOOR`` are inverted at the floor.
    """
    psi_received = np.asarray(psi_received)
    w_prev = np.asarray(w_prev)
    if psi_received.ndim == 2:
        diff = psi_received[:, None, :] - w_prev[None, :, :]
    else:
        diff = psi_received - w_prev[None, :, :]
    d2 = (diff**2).sum(axis=2)  # (N, N): [l, k]
    sup = state.support
    nu = state.nu[None, :]
    # off the support gamma2 stays 0 and its weight 0 / floor = 0
    state.gamma2 = (1.0 - nu) * state.gamma2 + nu * np.where(sup, d2, 0.0)
    inv = sup / np.maximum(state.gamma2, VARIANCE_FLOOR)
    entries = inv / inv.sum(axis=0, keepdims=True)
    return state, entries
