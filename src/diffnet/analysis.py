"""Closed-form mean and mean-square performance of diffusion strategies.

All block quantities stack node blocks of size M in node order, so a network
vector lives in R^(NM).  The central objects are

    B = A2' (I - M R) A1'        mean error dynamics,
    G = A2' M C',                noise injection map,
    Y = G S G' (+ delta_y),      injected noise covariance,

with M the block step-size matrix, R the block diagonal of neighborhood
covariances R_k = sum_l c_lk R_{u,l}, and S the block diagonal of
sigma2_{v,k} R_{u,k}.  Every steady-state value comes from the error
covariance X of the small-step variance relation

    X = B X B' + Y,

a discrete Lyapunov equation solved by Smith's doubling of its series
sum_k B^k Y (B')^k and accepted only when its residual is small against the
scale of Y and of B X B'.
Node k's MSD is Tr(X_kk) and its EMSE is Tr(X_kk R_{u,k}), with X_kk the
k-th diagonal M x M block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datamodel import EnsembleModel, LinkNoiseModel
from .diffusion import DiffusionConfig, atc_config, cta_config, non_cooperative_config
from .errors import InstabilityError, ValidationError
from .stochmat import DOUBLY, classify_stochastic, identity_combination, kron_identity


@dataclass(frozen=True)
class NetworkMoments:
    """Block second-order moments of the network.

    ``r`` uses the neighborhood covariances R_k (equal to ``ru`` exactly when
    C = I); ``s`` is the covariance of the gradient-noise injection.
    """

    mblk: np.ndarray  # (NM, NM) diag{mu_k I}
    r: np.ndarray  # (NM, NM) blockdiag{R_k}
    ru: np.ndarray  # (NM, NM) blockdiag{R_{u,k}}
    s: np.ndarray  # (NM, NM) blockdiag{sigma2_{v,k} R_{u,k}}
    rv: np.ndarray  # (N, N) diag{sigma2_{v,k}}
    n: int
    m: int
    ru_stack: np.ndarray = field(repr=False, default=None)  # (N, M, M)
    rk_stack: np.ndarray = field(repr=False, default=None)  # (N, M, M)
    wo: np.ndarray = field(repr=False, default=None)  # (M,)


def _blockdiag(stack: np.ndarray) -> np.ndarray:
    n, m, _ = stack.shape
    out = np.zeros((n * m, n * m))
    for k in range(n):
        out[k * m : (k + 1) * m, k * m : (k + 1) * m] = stack[k]
    return out


def build_moments(model: EnsembleModel, cfg: DiffusionConfig) -> NetworkMoments:
    """Assemble the block moment matrices for a model/strategy pair."""
    if model.n != cfg.n:
        raise ValidationError("model and configuration disagree on the node count")
    n, m = model.n, model.m
    rk = np.einsum("lk,lmn->kmn", cfg.c.entries, model.ru)
    mblk = np.kron(np.diag(cfg.mu), np.eye(m))
    s = _blockdiag(model.sigma2_v[:, None, None] * model.ru)
    return NetworkMoments(
        mblk=mblk,
        r=_blockdiag(rk),
        ru=_blockdiag(model.ru),
        s=s,
        rv=np.diag(model.sigma2_v),
        n=n,
        m=m,
        ru_stack=model.ru,
        rk_stack=rk,
        wo=model.wo,
    )


@dataclass
class VarianceConstructs:
    """Matrices of the mean and variance relations.

    ``b`` drives the mean error and ``y`` is the noise covariance injected
    per step, so the steady-state error covariance X solves X = B X B' + Y.
    Under noisy exchange, :func:`imperfect_constructs` folds the link-noise
    term into ``y`` and also keeps it on its own as ``delta_y``.
    """

    b: np.ndarray
    g: np.ndarray
    y: np.ndarray
    rho_b: float
    z: np.ndarray | None = None  # gradient-noise covariance C' S C (+ link term)
    delta_y: np.ndarray | None = None


def variance_constructs(moments: NetworkMoments, cfg: DiffusionConfig) -> VarianceConstructs:
    """Perfect-exchange constructs B, G and Y."""
    m = moments.m
    a1t = kron_identity(cfg.a1.entries.T, m)
    a2t = kron_identity(cfg.a2.entries.T, m)
    ct = kron_identity(cfg.c.entries.T, m)
    b = a2t @ (np.eye(moments.n * m) - moments.mblk @ moments.r) @ a1t
    g = a2t @ moments.mblk @ ct
    y = g @ moments.s @ g.T
    rho_b = float(np.abs(np.linalg.eigvals(b)).max())
    z = ct @ moments.s @ ct.T
    return VarianceConstructs(b=b, g=g, y=y, rho_b=rho_b, z=z)


def imperfect_constructs(
    moments: NetworkMoments, cfg: DiffusionConfig, link_noise: LinkNoiseModel
) -> VarianceConstructs:
    """Constructs with the noisy-exchange correction ``delta_y`` folded into Y.

    delta_y = A2' M R_du M A2 + H Rw H' + Rpsi, with H = A2' (I - M R), where
    R_du aggregates measurement-exchange noise through the squared entries of
    C, and Rw/Rpsi aggregate estimate-exchange noise through the squared
    entries of A1/A2.  Regressors are exchanged unperturbed, so the mean
    dynamics (and hence B) are those of the perfect-exchange case.
    """
    vc = variance_constructs(moments, cfg)
    n, m = moments.n, moments.m
    if link_noise.n != n or link_noise.m != m:
        raise ValidationError("link-noise model size does not match the network")

    c2 = cfg.c.entries**2
    rdu_blocks = np.einsum("lk,lk,lmn->kmn", c2, link_noise.sigma2_d, moments.ru_stack)
    rw_blocks = np.einsum("lk,lkmn->kmn", cfg.a1.entries**2, link_noise.rw)
    rpsi_blocks = np.einsum("lk,lkmn->kmn", cfg.a2.entries**2, link_noise.rpsi)

    a2t = kron_identity(cfg.a2.entries.T, m)
    h = a2t @ (np.eye(n * m) - moments.mblk @ moments.r)
    rdu = _blockdiag(rdu_blocks)
    delta_y = (
        a2t @ moments.mblk @ rdu @ moments.mblk @ a2t.T
        + h @ _blockdiag(rw_blocks) @ h.T
        + _blockdiag(rpsi_blocks)
    )
    vc.z = vc.z + rdu
    vc.delta_y = delta_y
    vc.y = vc.y + delta_y
    return vc


@dataclass(frozen=True)
class PerformanceReport:
    """Steady-state theory values; NaN metrics when mean-square unstable."""

    msd_network: float
    emse_network: float
    msd_node: np.ndarray
    emse_node: np.ndarray
    stable_mean: bool
    stable_ms: bool
    rho_b: float
    method: str


_DOUBLING_CAP = 64  # 2^64 series terms: far past convergence for any rho(B) < 1


def _smith_doubling(b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X = sum_k B^k Y (B')^k by doubling: after j steps X holds 2^j terms."""
    x, a = y, b
    for _ in range(_DOUBLING_CAP):
        step = a @ x @ a.T
        x = x + step
        if not np.linalg.norm(step) > 1e-15 * np.linalg.norm(x):
            break
        a = a @ a
    return x


def _steady_state(b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X with X = B X B' + Y, by Smith doubling with a residual check.

    Raises InstabilityError when X is not finite or ||X - B X B' - Y||_F
    exceeds 1e-8 (||Y||_F + ||B||_F^2 ||X||_F), which covers a diverged run,
    one cut at the iteration cap and an inaccurate one.  The ||B||^2 ||X||
    term is the scale of the rounding in B X B' itself, which dominates when
    B has large transient growth and ||X|| >> ||Y||.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run fails the check below
        x = _smith_doubling(b, y)
        residual = np.linalg.norm(x - b @ x @ b.T - y)
        x_norm, y_norm = np.linalg.norm(x), np.linalg.norm(y)
        bound = 1e-8 * (y_norm + np.linalg.norm(b) ** 2 * x_norm)
    if not (np.isfinite(x_norm) and residual <= bound):
        raise InstabilityError(
            f"Lyapunov solve inaccurate: ||X - B X B' - Y|| = {residual:.3g}, "
            f"||Y|| = {y_norm:.3g}, ||X|| = {x_norm:.3g}"
        )
    return x


def performance_report(
    constructs: VarianceConstructs, moments: NetworkMoments
) -> PerformanceReport:
    """Steady-state network and per-node MSD/EMSE.

    Solves the variance relation X = B X B' + Y for the steady-state error
    covariance X by Smith doubling, raising InstabilityError when its
    residual check fails, and reads node k's MSD Tr(X_kk) and EMSE
    Tr(X_kk R_{u,k}) off its diagonal blocks.  An unstable configuration
    (rho(B) >= 1) yields a report flagged unstable with NaN metrics rather
    than an exception.
    """
    n, m = moments.n, moments.m
    rho_b = constructs.rho_b
    if rho_b >= 1.0:
        nan = float("nan")
        return PerformanceReport(
            msd_network=nan,
            emse_network=nan,
            msd_node=np.full(n, nan),
            emse_node=np.full(n, nan),
            stable_mean=False,
            stable_ms=False,
            rho_b=rho_b,
            method="none",
        )

    x = _steady_state(constructs.b, constructs.y)
    nodes = np.arange(n)
    blocks = x.reshape(n, m, n, m)[nodes, :, nodes, :]  # (N, M, M) diagonal blocks X_kk
    msd_node = np.trace(blocks, axis1=1, axis2=2)
    emse_node = np.einsum("kij,kji->k", blocks, moments.ru_stack)
    return PerformanceReport(
        msd_network=float(msd_node.mean()),
        emse_network=float(emse_node.mean()),
        msd_node=msd_node,
        emse_node=emse_node,
        stable_mean=True,
        stable_ms=True,
        rho_b=rho_b,
        method="linear_solve",
    )


class LearningCurves(NamedTuple):
    """Theoretical network EMSE and MSD at steps 0..steps."""

    emse: np.ndarray
    msd: np.ndarray


# Above this cond(V) of B = V Lambda V^-1 the eigen expansion loses accuracy
# (B is near-defective) and the forward recursion runs instead.  On perturbed
# Jordan blocks of sizes 2-5 the expansion's largest relative error against
# the recursion was 1.3e-12 for cond(V) < 100, 2e-11 below 300 and 4e-10
# below 1000; diffusion B's from Metropolis and relative-degree weights had
# cond(V) below 15.
_EIGEN_COND_MAX = 100.0


def learning_curve_theory(
    constructs: VarianceConstructs, moments: NetworkMoments, w_init, steps: int
) -> LearningCurves:
    """Theoretical network EMSE and MSD trajectories over steps 0..steps.

    ``w_init`` is the common (N, M) initial iterate (zeros by default).  Entry
    i of each curve is Tr(T X_{i+1}), with T = R_u/N for the EMSE and I/N for
    the MSD, where X_{i+1} = B X_i B' + Y starts from X_0 = w~_0 w~_0'.

    The transient obeys X_i - X_inf = B^i (X_0 - X_inf) B'^i.  With
    B = V Lambda V^-1 each curve is Tr(T X_inf) + sum_ab W_ab (l_a l_b)^(i+1),
    W = (V' T V) o (V^-1 (X_0 - X_inf) V^-T): O((NM)^2) per step.  When V is
    ill-conditioned the forward recursion runs instead, O((NM)^3) per step.
    """
    if constructs.rho_b >= 1.0:
        raise InstabilityError("learning curve undefined: rho(B) >= 1")
    n, m = moments.n, moments.m
    if w_init is None:
        w_init = np.zeros((n, m))
    werr = (moments.wo[None, :] - np.asarray(w_init, dtype=float).reshape(n, m)).reshape(-1)
    b, y = constructs.b, constructs.y
    x0 = np.outer(werr, werr)
    curves = np.empty((2, steps + 1))

    lam, v = np.linalg.eig(b)
    if np.linalg.cond(v) <= _EIGEN_COND_MAX:
        x_inf = _steady_state(b, y)
        e = np.linalg.solve(v, np.linalg.solve(v, x0 - x_inf).T)  # V^-1 (X_0 - X_inf) V^-T
        # T V for T = blockdiag(R_u,k); T = I leaves V.  W takes the 1/N.
        ru_v = (moments.ru_stack @ v.reshape(n, m, n * m)).reshape(n * m, n * m)
        # W and the pairwise rates are symmetric: sum over a <= b, doubling a < b
        upper = np.triu_indices(n * m)
        w = np.empty((2, upper[0].size), dtype=complex)
        for j, t in enumerate((ru_v, v)):
            p = v.T @ t
            p *= e
            w[j] = p[upper]
        w *= np.where(upper[0] == upper[1], 1.0, 2.0) / n
        rate = (lam[:, None] * lam[None, :])[upper]
        power = rate.copy()
        for i in range(steps + 1):
            curves[:, i] = (w @ power).real
            power *= rate
        curves[0] += np.vdot(moments.ru, x_inf) / n
        curves[1] += np.trace(x_inf) / n
    else:
        x = x0
        for i in range(steps + 1):
            x = b @ x @ b.T + y
            curves[0, i] = np.vdot(moments.ru, x) / n
            curves[1, i] = np.trace(x) / n
    return LearningCurves(emse=curves[0], msd=curves[1])


def mean_stability(
    constructs: VarianceConstructs, moments: NetworkMoments, cfg: DiffusionConfig
) -> dict:
    """Mean-stability summary: rho(B), the verdict, and the per-node bounds."""
    lam_max = np.linalg.eigvalsh(moments.rk_stack)[:, -1]
    bounds = 2.0 / lam_max
    per_node_ok = cfg.mu < bounds
    return {
        "rho_b": constructs.rho_b,
        "stable": constructs.rho_b < 1.0,
        "per_node_bound_ok": per_node_ok,
        "mu_bounds": bounds,
    }


def consensus_mean_matrix(a, moments: NetworkMoments) -> np.ndarray:
    """Mean error dynamics matrix A' (x) I - M R_u of the consensus update.

    Unlike the diffusion counterpart B, this matrix can be unstable even when
    every per-node step-size bound holds.
    """
    a_entries = a.entries if hasattr(a, "entries") else np.asarray(a, dtype=float)
    return kron_identity(a_entries.T, moments.m) - moments.mblk @ moments.ru


def _theory_msd(model: EnsembleModel, cfg: DiffusionConfig) -> float:
    moments = build_moments(model, cfg)
    return performance_report(variance_constructs(moments, cfg), moments).msd_network


def _is_psd(x: np.ndarray, tol: float) -> bool:
    return float(np.linalg.eigvalsh(0.5 * (x + x.T))[0]) >= -tol


@dataclass
class ComparisonRow:
    name: str
    applicable: bool
    reason: str
    holds: bool | None
    lhs: float | None
    rhs: float | None

    @property
    def margin(self) -> float | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs


@dataclass
class ComparisonReport:
    msd: dict
    rows: list

    def row(self, name: str) -> ComparisonRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def compare_strategies(model: EnsembleModel, a, c, mu, tol: float = 1e-9) -> ComparisonReport:
    """Theoretical MSD ordering checks across cooperation strategies.

    Each inequality is evaluated only when its preconditions hold (doubly
    stochastic matrices, uniform covariance/step-size profile, noise-profile
    contraction); otherwise the row is marked not applicable with a reason.
    """
    n = model.n
    mu_arr = np.broadcast_to(np.asarray(mu, dtype=float), (n,))
    eye_c = identity_combination(n)

    configs = {
        "atc": atc_config(a, c, mu_arr),
        "cta": cta_config(a, c, mu_arr),
        "lms": non_cooperative_config(n, mu_arr),
        "atc_c_eye": atc_config(a, eye_c, mu_arr),
        "cta_c_eye": cta_config(a, eye_c, mu_arr),
    }
    msd = {name: _theory_msd(model, cfg) for name, cfg in configs.items()}

    a_doubly = DOUBLY in classify_stochastic(a.entries, tol)
    c_doubly = DOUBLY in classify_stochastic(c.entries, tol)
    uniform_ru = all(np.allclose(model.ru[k], model.ru[0], atol=tol) for k in range(n))
    uniform_mu = np.ptp(mu_arr) <= tol
    rv = np.diag(model.sigma2_v)
    contract = _is_psd(rv - c.entries.T @ rv @ c.entries, tol)
    expand = _is_psd(c.entries.T @ rv @ c.entries - rv, tol)

    slack = 1e-12

    def row(name, applicable, reason, lhs_key, rhs_key):
        if not applicable:
            return ComparisonRow(name, False, reason, None, None, None)
        lhs, rhs = msd[lhs_key], msd[rhs_key]
        return ComparisonRow(name, True, "", lhs <= rhs + slack * max(1.0, abs(rhs)), lhs, rhs)

    uniform = uniform_ru and uniform_mu
    rows = [
        row("atc<=cta", a_doubly, "needs doubly stochastic A", "atc", "cta"),
        row(
            "cta_exchange<=cta_local",
            c_doubly and uniform and contract,
            "needs doubly stochastic C, uniform profile, C'RvC <= Rv",
            "cta",
            "cta_c_eye",
        ),
        row(
            "cta_local<=cta_exchange",
            c_doubly and uniform and expand,
            "needs doubly stochastic C, uniform profile, C'RvC >= Rv",
            "cta_c_eye",
            "cta",
        ),
        row(
            "atc_exchange<=atc_local",
            c_doubly and uniform and contract,
            "needs doubly stochastic C, uniform profile, C'RvC <= Rv",
            "atc",
            "atc_c_eye",
        ),
        row(
            "atc_local<=atc_exchange",
            c_doubly and uniform and expand,
            "needs doubly stochastic C, uniform profile, C'RvC >= Rv",
            "atc_c_eye",
            "atc",
        ),
        row(
            "cta<=lms",
            a_doubly and c_doubly and uniform,
            "needs doubly stochastic A and C, uniform profile",
            "cta",
            "lms",
        ),
        row(
            "atc<=lms",
            a_doubly and c_doubly and uniform,
            "needs doubly stochastic A and C, uniform profile",
            "atc",
            "lms",
        ),
    ]
    return ComparisonReport(msd=msd, rows=rows)


def generic_cost_report(hessians, cfg: DiffusionConfig, z: np.ndarray) -> float:
    """Network MSD for generic convex costs from Hessians at the minimizer.

    ``hessians`` holds per-node Hessians in the moment convention of the
    quadratic model (pass R_{u,k} for the built-in cost), and ``z`` is the
    gradient-noise covariance at the minimizer (C' S C for the quadratic
    cost), making the result coincide with :func:`performance_report`.
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


def uniform_profile_msd(
    a1, a2, c, rv: np.ndarray, ru: np.ndarray, mu: float, tol: float = 1e-14, max_terms: int = 500000
) -> float:
    """Decoupled network MSD under a uniform data profile.

    Requires R_{u,k} = R_u and mu_k = mu for all nodes with doubly stochastic
    C; the series then factors into an N x N combination/noise part and an
    M x M data part, evaluated without any Kronecker assembly.  Serves as an
    independent cross-check of the block-form engine.
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
