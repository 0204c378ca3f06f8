"""Ground-truth linear data model, sampling, and quadratic cost evaluation.

Every node k observes scalar measurements ``d_k(i) = u_{k,i} w_o + v_k(i)``
with zero-mean Gaussian regressors of covariance ``R_{u,k}`` and independent
zero-mean Gaussian noise of variance ``sigma2_{v,k}``.  All data are real;
the gradient of the per-node quadratic cost is ``2 (R_{u,k} w - r_{du,k})``,
while the iterative strategies use the update form ``mu * (r_du - R_u w)``
directly so that the standard step-size bounds apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ValidationError
from .graph import Topology


class Snapshot(NamedTuple):
    """One synchronous draw of network data: d (N,), u (N, M), v (N,)."""

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray


class LinkDraws(NamedTuple):
    """Per-directed-pair noise draws; entry [l, k] perturbs the l -> k link."""

    vw: np.ndarray  # (N, N, M) weight-exchange noise
    vpsi: np.ndarray  # (N, N, M) intermediate-exchange noise
    vd: np.ndarray  # (N, N) measurement-exchange noise


@dataclass(frozen=True)
class EnsembleModel:
    """Ground truth and per-node second-order moments.

    Derived fields: ``rdu[k] = Ru[k] @ wo`` (so the normal equations hold by
    construction) and ``sigma2_d[k] = wo' Ru[k] wo + sigma2_v[k]``.
    """

    wo: np.ndarray  # (M,)
    ru: np.ndarray  # (N, M, M), symmetric positive-definite
    sigma2_v: np.ndarray  # (N,), > 0
    rdu: np.ndarray = field(init=False, repr=False)
    sigma2_d: np.ndarray = field(init=False, repr=False)
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        wo = np.asarray(self.wo, dtype=float).reshape(-1)
        ru = np.asarray(self.ru, dtype=float)
        s2 = np.asarray(self.sigma2_v, dtype=float).reshape(-1)
        if ru.ndim != 3 or ru.shape[1] != ru.shape[2] or ru.shape[1] != wo.size:
            raise ValidationError(f"ru must be (N, M, M) with M={wo.size}, got {ru.shape}")
        if s2.shape[0] != ru.shape[0]:
            raise ValidationError("sigma2_v length must match node count")
        if np.any(s2 <= 0):
            raise ValidationError("noise variances must be strictly positive")
        asym = np.abs(ru - ru.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-10:
            raise ValidationError(f"covariances must be symmetric (max asymmetry {asym:.3e})")
        try:
            chol = np.linalg.cholesky(ru)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"covariance factorization failed: {exc}") from exc
        object.__setattr__(self, "wo", wo)
        object.__setattr__(self, "ru", ru)
        object.__setattr__(self, "sigma2_v", s2)
        object.__setattr__(self, "rdu", ru @ wo)
        object.__setattr__(self, "sigma2_d", np.einsum("m,kmn,n->k", wo, ru, wo) + s2)
        object.__setattr__(self, "_chol", chol)

    @property
    def n(self) -> int:
        return self.ru.shape[0]

    @property
    def m(self) -> int:
        return self.wo.size

    def jmin(self, k: int) -> float:
        """Minimum cost at node k; equals the noise floor sigma2_v[k]."""
        r = self.rdu[k]
        return float(self.sigma2_d[k] - r @ np.linalg.solve(self.ru[k], r))


def sample_snapshot(model: EnsembleModel, rng) -> Snapshot:
    """One i.i.d. network data snapshot, independent across nodes and calls."""
    z = rng.standard_normal((model.n, model.m))
    u = (model._chol @ z[:, :, None])[:, :, 0]
    v = np.sqrt(model.sigma2_v) * rng.standard_normal(model.n)
    d = u @ model.wo + v
    return Snapshot(d=d, u=u, v=v)


@dataclass(frozen=True)
class LinkNoiseModel:
    """Additive noise on information-exchange links.

    Entry ``[l, k]`` of each field describes the directed l -> k link:
    ``rw``/``rpsi`` are M x M covariances of the weight- and
    intermediate-estimate exchange noises, ``sigma2_d`` the variance of the
    measurement-exchange noise.  Self pairs carry zero noise, and regressors
    are exchanged unperturbed.

    Only the pairs with nonzero noise are drawn: ``_w_pairs``, ``_psi_pairs``
    and ``_d_pairs`` list them by flat index l*N + k in increasing order, and
    :func:`sample_link_noise` draws the vw pairs, then the vpsi pairs, then
    the vd pairs, in that order.
    """

    rw: np.ndarray  # (N, N, M, M)
    rpsi: np.ndarray  # (N, N, M, M)
    sigma2_d: np.ndarray  # (N, N)
    _fw: np.ndarray = field(init=False, repr=False)  # (P_w, M, M) nonzero factors
    _fpsi: np.ndarray = field(init=False, repr=False)  # (P_psi, M, M)
    _w_pairs: np.ndarray = field(init=False, repr=False)  # flat l*N + k of each factor
    _psi_pairs: np.ndarray = field(init=False, repr=False)
    _sd: np.ndarray = field(init=False, repr=False)  # (P_d,) nonzero standard deviations
    _d_pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rw = np.asarray(self.rw, dtype=float)
        rpsi = np.asarray(self.rpsi, dtype=float)
        s2 = np.asarray(self.sigma2_d, dtype=float)
        n = rw.shape[0]
        m = rw.shape[2]
        if rw.shape != (n, n, m, m) or rpsi.shape != (n, n, m, m) or s2.shape != (n, n):
            raise ValidationError("link noise fields have inconsistent shapes")
        if np.any(s2 < 0):
            raise ValidationError("link measurement-noise variances must be nonnegative")
        for name, cov in (("rw", rw), ("rpsi", rpsi)):
            diag = np.abs(np.einsum("kkij->kij", cov)).max(initial=0.0)
            if diag > 0:
                raise ValidationError(f"{name} must be zero on self pairs")
        if np.abs(np.diagonal(s2)).max(initial=0.0) > 0:
            raise ValidationError("sigma2_d must be zero on self pairs")
        object.__setattr__(self, "rw", rw)
        object.__setattr__(self, "rpsi", rpsi)
        object.__setattr__(self, "sigma2_d", s2)
        for name, cov in (("w", rw), ("psi", rpsi)):
            factors = _psd_factors(cov, "r" + name).reshape(n * n, m, m)
            pairs = np.flatnonzero(factors.any(axis=(1, 2)))
            object.__setattr__(self, "_f" + name, factors[pairs])
            object.__setattr__(self, f"_{name}_pairs", pairs)
        d_pairs = np.flatnonzero(s2)
        object.__setattr__(self, "_sd", np.sqrt(s2.reshape(-1)[d_pairs]))
        object.__setattr__(self, "_d_pairs", d_pairs)

    @property
    def n(self) -> int:
        return self.rw.shape[0]

    @property
    def m(self) -> int:
        return self.rw.shape[2]


def _psd_factors(covs: np.ndarray, name: str) -> np.ndarray:
    """Symmetric square roots of a (N, N, M, M) stack of PSD matrices."""
    asym = np.abs(covs - covs.transpose(0, 1, 3, 2)).max(initial=0.0)
    if asym > 1e-10:
        raise ValidationError(f"{name} covariances must be symmetric")
    vals, vecs = np.linalg.eigh(covs)
    if vals.min(initial=0.0) < -1e-10:
        raise ValidationError(f"{name} covariances must be nonnegative-definite")
    root = np.sqrt(np.clip(vals, 0.0, None))
    return np.einsum("lkij,lkj,lkmj->lkim", vecs, root, vecs)


def zero_link_noise(n: int, m: int) -> LinkNoiseModel:
    return LinkNoiseModel(
        rw=np.zeros((n, n, m, m)), rpsi=np.zeros((n, n, m, m)), sigma2_d=np.zeros((n, n))
    )


def sample_link_noise(lm: LinkNoiseModel, rng) -> LinkDraws:
    """Per-pair Gaussian draws; zero-covariance pairs return exact zeros.

    One draw of (P_w + P_psi) M + P_d normals covers only the noisy pairs:
    M for each vw pair, then M for each vpsi pair, then one for each vd pair,
    every field's pairs in flat l*N + k order.  Each pair's normals are scaled
    by its covariance factor and scattered into the dense draws.
    """
    n, m = lm.n, lm.m
    w_end = lm._w_pairs.size * m
    psi_end = w_end + lm._psi_pairs.size * m
    z = rng.standard_normal(psi_end + lm._d_pairs.size)
    draws = []
    for factors, pairs, zs in (
        (lm._fw, lm._w_pairs, z[:w_end]),
        (lm._fpsi, lm._psi_pairs, z[w_end:psi_end]),
    ):
        v = np.zeros((n * n, m))
        if pairs.size:
            v[pairs] = np.einsum("pij,pj->pi", factors, zs.reshape(pairs.size, m))
        draws.append(v.reshape(n, n, m))
    vd = np.zeros(n * n)
    vd[lm._d_pairs] = lm._sd * z[psi_end:]
    return LinkDraws(vw=draws[0], vpsi=draws[1], vd=vd.reshape(n, n))


def random_link_noise(
    t: Topology, m: int, rng, w_scale=0.0, psi_scale=1e-3, d_scale=1e-3
) -> LinkNoiseModel:
    """Random PSD link-noise model supported on the directed edges of ``t``."""
    n = t.n
    rw = np.zeros((n, n, m, m))
    rpsi = np.zeros((n, n, m, m))
    s2 = np.zeros((n, n))
    for l in range(n):
        for k in t.neighborhoods[l]:
            if k == l:
                continue
            if w_scale > 0:
                b = rng.standard_normal((m, m))
                rw[l, k] = w_scale * (b @ b.T) / m
            if psi_scale > 0:
                b = rng.standard_normal((m, m))
                rpsi[l, k] = psi_scale * (b @ b.T) / m
            if d_scale > 0:
                s2[l, k] = d_scale * rng.random()
    return LinkNoiseModel(rw=rw, rpsi=rpsi, sigma2_d=s2)


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
    r = model.rdu[k]
    ru = model.ru[k]
    j = float(model.sigma2_d[k] - 2.0 * (w @ r) + w @ ru @ w)
    grad = 2.0 * (ru @ w - r)
    return CostEval(j=j, gradient=grad, jmin=model.jmin(k))


def generate_model(
    rng,
    n_nodes: int,
    m: int,
    eigen_range=(0.5, 2.0),
    noise_range=(0.001, 0.01),
) -> EnsembleModel:
    """Desk-scale random model: rotated log-uniform covariance spectra and
    log-uniform noise variances; ground truth drawn uniformly on the sphere."""
    if not (0 < eigen_range[0] <= eigen_range[1] and 0 < noise_range[0] <= noise_range[1]):
        raise PreconditionError("eigen_range and noise_range must be positive [low, high] pairs")
    g = rng.standard_normal(m)
    wo = g / np.linalg.norm(g)
    ru = np.empty((n_nodes, m, m))
    for k in range(n_nodes):
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        q = q * np.sign(np.diagonal(r))  # unique orthogonal factor
        lam = np.exp(rng.uniform(np.log(eigen_range[0]), np.log(eigen_range[1]), m))
        ru[k] = (q * lam) @ q.T
        ru[k] = 0.5 * (ru[k] + ru[k].T)
    sigma2_v = np.exp(rng.uniform(np.log(noise_range[0]), np.log(noise_range[1]), n_nodes))
    return EnsembleModel(wo=wo, ru=ru, sigma2_v=sigma2_v)


def model_to_dict(model: EnsembleModel) -> dict:
    return {
        "wo": model.wo.tolist(),
        "ru": model.ru.tolist(),
        "sigma2_v": model.sigma2_v.tolist(),
    }
