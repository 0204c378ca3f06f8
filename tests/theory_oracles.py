"""Closed forms and reference recursions of the paper that no ``diffnet``
subcommand computes; the tests check the library and the paper's results
against them.

- ``uniform_profile_msd``: the decoupled N x N / M x M series for a uniform
  data profile, an independent check of the block steady state of
  ``analysis.performance_report`` at sizes the Kronecker oracle cannot reach.
- ``noncooperative_small_step``: the stand-alone LMS small-step MSD and EMSE,
  which the block engine must approach for a small step size.
- ``generic_cost_report``, ``generic_cost_step``, ``run_steepest_descent``
  and ``generic_step_bound``: diffusion over generic convex costs.  With the
  quadratic gradient and Hessians R_u,k they reduce to the adaptive step and
  ``performance_report``; with other costs they check the generic-cost theory
  against simulation.
- ``step_size_bounds``: the per-node bound 2 / lambda_max(R_k), which
  ``analysis.mean_stability`` reports as ``mu_bounds``.
- ``cross_covariance`` and ``sigma2_d``: the moments r_du,k = R_u,k w_o and
  sigma2_d,k = w_o' R_u,k w_o + sigma2_v,k that the data model implies.
- ``quadratic_cost`` and ``jmin``: node costs and their minimum, the noise
  floor sigma2_v,k.
- ``zero_link_noise``: a link-noise model whose draws are exact zeros, under
  which the noisy-exchange step and theory must reduce to perfect exchange.
- ``variance_product``: mu^2 sigma2_v Tr(R_u), the limit that the adaptive
  combination weights estimate.
- ``consensus_lms_config``: the consensus LMS configuration for a matrix A.
"""

from typing import NamedTuple

import numpy as np

from diffnet.analysis import _blockdiag, _steady_state
from diffnet.datamodel import EnsembleModel, LinkNoiseModel
from diffnet.diffusion import SENTINEL, DiffusionConfig, NetworkState, init_state
from diffnet.errors import InstabilityError, PreconditionError, ValidationError
from diffnet.stochmat import RIGHT, CombinationMatrix, classify_stochastic, identity_combination, kron_identity


def uniform_profile_msd(
    a1, a2, c, rv: np.ndarray, ru: np.ndarray, mu: float, tol: float = 1e-14, max_terms: int = 500000
) -> float:
    """Decoupled network MSD under a uniform data profile.

    Requires R_{u,k} = R_u and mu_k = mu for all nodes with doubly stochastic
    C; the series then factors into an N x N combination/noise part and an
    M x M data part, evaluated without any Kronecker assembly.
    """
    a1e = a1.entries if hasattr(a1, "entries") else np.asarray(a1, dtype=float)
    a2e = a2.entries if hasattr(a2, "entries") else np.asarray(a2, dtype=float)
    ce = c.entries if hasattr(c, "entries") else np.asarray(c, dtype=float)
    n = a1e.shape[0]
    core_n = a2e.T @ ce.T @ rv @ ce @ a2e
    prop_n = a2e.T @ a1e.T
    core_m = ru.copy()
    prop_m = np.eye(ru.shape[0]) - mu * ru
    total = 0.0
    term_n = core_n.copy()
    term_m = core_m.copy()
    for _ in range(max_terms):
        inc = np.trace(term_n) * np.trace(term_m)
        total += inc
        if abs(inc) <= tol * max(abs(total), 1e-300):
            return mu * mu * total / n
        term_n = prop_n @ term_n @ prop_n.T
        term_m = prop_m @ term_m @ prop_m.T
    raise InstabilityError("uniform-profile series did not converge")


def noncooperative_small_step(model: EnsembleModel, mu) -> tuple[np.ndarray, np.ndarray]:
    """Small-step closed forms for stand-alone LMS nodes.

    Returns per-node (MSD, EMSE) approximations
    ``mu sigma_v^2 M / 2`` and ``mu sigma_v^2 Tr(R_u) / 2``.
    """
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), (model.n,))
    traces = np.trace(model.ru, axis1=1, axis2=2)
    msd = mu_arr * model.sigma2_v * model.m / 2.0
    emse = mu_arr * model.sigma2_v * traces / 2.0
    return msd, emse


def generic_cost_report(hessians, cfg: DiffusionConfig, z: np.ndarray) -> float:
    """Network MSD for generic convex costs from Hessians at the minimizer.

    ``hessians`` holds per-node Hessians in the moment convention of the
    quadratic model (pass R_{u,k} for the built-in cost), and ``z`` is the
    gradient-noise covariance at the minimizer (C' S C for the quadratic
    cost), making the result coincide with ``analysis.performance_report``.
    """
    hess = np.asarray(hessians, dtype=float)
    n, m = hess.shape[0], hess.shape[1]
    rk = np.einsum("lk,lmn->kmn", cfg.c.entries, hess)
    mblk = np.kron(np.diag(cfg.mu), np.eye(m))
    a1t = kron_identity(cfg.a1.entries.T, m)
    a2t = kron_identity(cfg.a2.entries.T, m)
    b = a2t @ (np.eye(n * m) - mblk @ _blockdiag(rk)) @ a1t
    rho_b = float(np.abs(np.linalg.eigvals(b)).max())
    if rho_b >= 1.0:
        raise InstabilityError(f"rho(B) = {rho_b:.6g} >= 1")
    y = a2t @ mblk @ np.asarray(z, dtype=float) @ mblk @ a2t.T
    return float(np.trace(_steady_state(b, y))) / n


def generic_cost_step(
    state: NetworkState, cfg: DiffusionConfig, grad_oracle, noise_oracle=None
) -> NetworkState:
    """Diffusion step for arbitrary per-node costs.

    ``grad_oracle(l, w)`` returns the gradient of cost l at ``w``; for the
    quadratic model it is ``R_u w - r_du`` (see ``run_steepest_descent``).
    ``noise_oracle(l, w)``, when given, adds zero-mean gradient noise.
    """
    phi = state.w if cfg._a1_identity else cfg._a1t @ state.w
    psi = np.empty_like(phi)
    c = cfg._c
    m = phi.shape[1]
    for k in range(cfg.n):
        acc = np.zeros(m)
        for l in range(cfg.n):
            clk = c[l, k]
            if clk == 0.0:
                continue
            grad = np.asarray(grad_oracle(l, phi[k]), dtype=float)
            if grad.shape != (m,):
                raise ValidationError(f"gradient oracle returned shape {grad.shape}, expected ({m},)")
            if noise_oracle is not None:
                grad = grad + np.asarray(noise_oracle(l, phi[k]), dtype=float)
            acc += clk * grad
        psi[k] = phi[k] - cfg.mu[k] * acc
    state.w = psi if cfg._a2_identity else cfg._a2t @ psi
    return state


def run_steepest_descent(
    model: EnsembleModel, cfg: DiffusionConfig, iterations: int
) -> tuple[np.ndarray, NetworkState]:
    """Deterministic trajectory of ||w_i - wo|| per iteration: the diffusion
    step driven by the true moments, i.e. the generic cost step with the
    quadratic gradient ``R_u,l w - r_du,l``."""
    if cfg.consensus:
        raise PreconditionError("steepest-descent form not defined for the consensus variant")
    if model.n != cfg.n:
        raise ValidationError("model size does not match configuration")
    rdu = cross_covariance(model)

    def gradient(l, w):
        return model.ru[l] @ w - rdu[l]

    state = init_state(cfg, model.m)
    dev = np.empty(iterations)
    sentinel = SENTINEL * (1.0 + np.linalg.norm(model.wo))
    for i in range(iterations):
        state = generic_cost_step(state, cfg, gradient)
        dev[i] = np.linalg.norm(model.wo[None, :] - state.w)
        if not np.isfinite(dev[i]) or np.linalg.norm(state.w) > sentinel:
            dev[i + 1:] = np.inf
            break
    return dev, state


def generic_step_bound(lambda_min, lambda_max, c, alpha: float = 0.0) -> np.ndarray:
    """Per-node bound for generic convex costs with Hessian spectra in
    ``[lambda_min, lambda_max]`` per node.

    Noise-free case (alpha = 0): ``2 / sigma_k_max``.  With gradient noise of
    relative bound alpha, the tighter noisy-case bound applies.
    """
    c_entries = c.entries if isinstance(c, CombinationMatrix) else np.asarray(c, dtype=float)
    lam_min = np.asarray(lambda_min, dtype=float)
    lam_max = np.asarray(lambda_max, dtype=float)
    sig_max = c_entries.T @ lam_max
    if alpha == 0.0:
        return 2.0 / sig_max
    sig_min = c_entries.T @ lam_min
    if np.any(sig_min <= 0):
        raise PreconditionError("sigma_k_min must be positive for the noisy bound")
    c1 = np.abs(c_entries).sum(axis=0).max() ** 2  # ||C||_1 squared
    return np.minimum(
        2.0 * sig_max / (sig_max**2 + alpha * c1),
        2.0 * sig_min / (sig_min**2 + alpha * c1),
    )


def step_size_bounds(model: EnsembleModel, c) -> np.ndarray:
    """Per-node stability bounds ``2 / lambda_max(R_k)`` with
    ``R_k = sum_l c_lk R_{u,l}``."""
    c_entries = c.entries if isinstance(c, CombinationMatrix) else np.asarray(c, dtype=float)
    if RIGHT not in classify_stochastic(c_entries, 1e-9):
        raise PreconditionError("c must be right-stochastic")
    rk = np.einsum("lk,lmn->kmn", c_entries, model.ru)
    lam_max = np.linalg.eigvalsh(rk)[:, -1]
    return 2.0 / lam_max


def cross_covariance(model: EnsembleModel) -> np.ndarray:
    """(N, M) stack of r_du,k = R_u,k w_o, so the normal equations hold."""
    return model.ru @ model.wo


def sigma2_d(model: EnsembleModel) -> np.ndarray:
    """(N,) measurement variances sigma2_d,k = w_o' R_u,k w_o + sigma2_v,k."""
    return np.einsum("m,kmn,n->k", model.wo, model.ru, model.wo) + model.sigma2_v


def jmin(model: EnsembleModel, k: int) -> float:
    """Minimum cost at node k; equals the noise floor sigma2_v[k]."""
    r = cross_covariance(model)[k]
    return float(sigma2_d(model)[k] - r @ np.linalg.solve(model.ru[k], r))


class CostEval(NamedTuple):
    j: float
    gradient: np.ndarray
    jmin: float


def quadratic_cost(model: EnsembleModel, k: int, w) -> CostEval:
    """Evaluate node k's quadratic cost, its gradient, and the minimum value.

    ``J_k(w) = sigma2_d - 2 w'r + w'Rw`` with gradient ``2 (R w - r)``; the
    gradient vanishes at the ground truth and ``J_k(wo) = sigma2_v[k]``.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != model.m:
        raise ValidationError(f"w must have length {model.m}")
    r = cross_covariance(model)[k]
    ru = model.ru[k]
    j = float(sigma2_d(model)[k] - 2.0 * (w @ r) + w @ ru @ w)
    grad = 2.0 * (ru @ w - r)
    return CostEval(j=j, gradient=grad, jmin=jmin(model, k))


def zero_link_noise(n: int, m: int) -> LinkNoiseModel:
    return LinkNoiseModel(
        rw=np.zeros((n, n, m, m)), rpsi=np.zeros((n, n, m, m)), sigma2_d=np.zeros((n, n))
    )


def variance_product(mu: float, sigma2_v: float, trace_ru: float) -> float:
    """Noise-data variance product ``mu^2 * sigma_v^2 * Tr(R_u)``.

    The per-node quality measure behind the relative-variance rule; it equals
    the steady-state mean of ``||psi - w_prev||^2`` for small step sizes.
    """
    if mu < 0 or sigma2_v < 0 or trace_ru < 0:
        raise PreconditionError("variance product inputs must be nonnegative")
    return mu * mu * sigma2_v * trace_ru


def consensus_lms_config(a, mu) -> DiffusionConfig:
    return DiffusionConfig(
        a1=identity_combination(a.n), a2=a, c=identity_combination(a.n),
        mu=mu, consensus=True,
    )
