"""Iterative strategies: diffusion (steepest-descent and adaptive), consensus
baselines, temporal-smoothing variants, and generic-convex-cost diffusion.

The general diffusion step with matrices {A1, C, A2} is

    phi_k = sum_l a1_lk w_l
    psi_k = phi_k + mu_k * sum_l c_lk * u_l' (d_l - u_l phi_k)
    w_k   = sum_l a2_lk psi_l

ATC is (A1=I, A2=A), CTA is (A1=A, A2=I), and the non-cooperative mode is
(A1=A2=C=I).  The consensus baseline combines prior neighbor iterates but
adapts around the node's own previous estimate instead of the combined one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import combiners
from .datamodel import EnsembleModel, LinkDraws, LinkNoiseModel, Snapshot, sample_link_noise, sample_snapshot
from .errors import PreconditionError, ValidationError
from .stochmat import DOUBLY, LEFT, RIGHT, CombinationMatrix, classify_stochastic

GENERAL = "general"
ATC = "atc"
CTA = "cta"
NON_COOPERATIVE = "non_cooperative"
CONSENSUS_LMS = "consensus_lms"
VARIANTS = (GENERAL, ATC, CTA, NON_COOPERATIVE, CONSENSUS_LMS)

SMOOTHING_ORDERS = ("TSA", "TAS", "STA", "ATS", "SAT", "AST")

# scale-aware divergence sentinel: trip when ||w|| > SENTINEL * (1 + ||wo||)
SENTINEL = 1e9


@dataclass
class SmoothingConfig:
    """Temporal-smoothing settings: stage order, per-node filter taps ``f``
    (each row nonnegative, summing to 1), and adaptation gains ``q`` in
    (0, 1]."""

    order: str
    f: np.ndarray  # (N, P)
    q: np.ndarray  # (N,)

    def __post_init__(self):
        if self.order not in SMOOTHING_ORDERS:
            raise ValidationError(f"smoothing order must be one of {SMOOTHING_ORDERS}")
        f = np.atleast_2d(np.asarray(self.f, dtype=float))
        if f.shape[1] < 1:
            raise ValidationError("smoothing depth P must be at least 1")
        if np.any(f < 0) or np.abs(f.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValidationError("each row of f must be nonnegative and sum to 1")
        q = np.asarray(self.q, dtype=float).reshape(-1)
        if np.any((q <= 0) | (q > 1)):
            raise ValidationError("q entries must lie in (0, 1]")
        self.f = f
        self.q = q

    @property
    def depth(self) -> int:
        return self.f.shape[1]


@dataclass
class AdaptiveWeightConfig:
    """Online relative-variance combination weights (ATC family only)."""

    nu: np.ndarray | float = 0.05
    floor: float = combiners.VARIANCE_FLOOR


@dataclass
class DiffusionConfig:
    """Matrices, step sizes, and optional extensions for one strategy."""

    a1: CombinationMatrix
    a2: CombinationMatrix
    c: CombinationMatrix
    mu: np.ndarray
    variant: str = GENERAL
    link_noise: LinkNoiseModel | None = None
    adaptive_weights: AdaptiveWeightConfig | None = None
    smoothing: SmoothingConfig | None = None

    def __post_init__(self):
        n = self.a1.n
        if self.a2.n != n or self.c.n != n:
            raise ValidationError("combination matrices must share one size")
        for name, cm, ok in (
            ("a1", self.a1, (LEFT, DOUBLY)),
            ("a2", self.a2, (LEFT, DOUBLY)),
            ("c", self.c, (RIGHT, DOUBLY)),
        ):
            if cm.kind not in ok:
                raise ValidationError(f"{name} must be {' or '.join(ok)}-stochastic")
        try:
            self.mu = np.broadcast_to(np.asarray(self.mu, dtype=float), (n,)).copy()
        except ValueError:
            raise ValidationError(f"mu must be one step size or {n} of them") from None
        if np.any(self.mu < 0):
            raise ValidationError("step sizes must be nonnegative")
        if self.variant not in VARIANTS:
            raise ValidationError(f"variant must be one of {VARIANTS}")

        eye = np.eye(n)
        self._a1t = self.a1.entries.T.copy()
        self._a2t = self.a2.entries.T.copy()
        self._c = self.c.entries.copy()
        self._a1_identity = np.array_equal(self.a1.entries, eye)
        self._a2_identity = np.array_equal(self.a2.entries, eye)
        self._c_identity = np.array_equal(self._c, eye)

        if self.variant == ATC and not self._a1_identity:
            raise ValidationError("ATC requires a1 = I")
        if self.variant == CTA and not self._a2_identity:
            raise ValidationError("CTA requires a2 = I")
        if self.variant == NON_COOPERATIVE and not (
            self._a1_identity and self._a2_identity and self._c_identity
        ):
            raise ValidationError("non-cooperative mode requires a1 = a2 = c = I")

        if self.adaptive_weights is not None:
            if not (self._a1_identity and self._c_identity):
                raise ValidationError(
                    "adaptive combination weights are supported for the ATC family "
                    "only (a1 = I, c = I)"
                )
        if self.smoothing is not None:
            if not self._a1_identity:
                raise ValidationError("smoothing variants use a2 as the spatial matrix; set a1 = I")
            sm = self.smoothing
            if sm.f.shape[0] == 1 and n > 1:
                sm.f = np.repeat(sm.f, n, axis=0)
            if sm.q.size == 1 and n > 1:
                sm.q = np.repeat(sm.q, n)
            if sm.f.shape[0] != n or sm.q.size != n:
                raise ValidationError("smoothing f/q sizes must match the node count")
            self._c_smooth = sm.q[:, None] * self._c
            self._c_smooth_identity = np.array_equal(self._c_smooth, eye)
            self._smooth_taps = [_prefix_taps(sm.f[:, :avail]) for avail in range(1, sm.depth + 1)]

    @property
    def n(self) -> int:
        return self.a1.n


def _prefix_taps(taps: np.ndarray) -> list:
    """The T stage's (N, 1) tap columns over a history prefix, renormalized
    per node; a node whose prefix has zero mass takes its newest entry."""
    mass = taps.sum(axis=1, keepdims=True)
    taps = np.where(mass > 0, taps / np.where(mass > 0, mass, 1.0), 0.0)
    taps[mass[:, 0] == 0, 0] = 1.0
    return [taps[:, j][:, None] for j in range(taps.shape[1])]


def general_config(a1, a2, c, mu, **kw) -> DiffusionConfig:
    return DiffusionConfig(a1=a1, a2=a2, c=c, mu=mu, variant=GENERAL, **kw)


def atc_config(a, c, mu, **kw) -> DiffusionConfig:
    from .stochmat import identity_combination

    return DiffusionConfig(
        a1=identity_combination(a.n), a2=a, c=c, mu=mu, variant=ATC, **kw
    )


def cta_config(a, c, mu, **kw) -> DiffusionConfig:
    from .stochmat import identity_combination

    return DiffusionConfig(
        a1=a, a2=identity_combination(a.n), c=c, mu=mu, variant=CTA, **kw
    )


def non_cooperative_config(n, mu, **kw) -> DiffusionConfig:
    from .stochmat import identity_combination

    eye = identity_combination(n)
    return DiffusionConfig(a1=eye, a2=eye, c=eye, mu=mu, variant=NON_COOPERATIVE, **kw)


def consensus_lms_config(a, mu, **kw) -> DiffusionConfig:
    from .stochmat import identity_combination

    return DiffusionConfig(
        a1=identity_combination(a.n), a2=a, c=identity_combination(a.n),
        mu=mu, variant=CONSENSUS_LMS, **kw
    )


@dataclass
class NetworkState:
    """Per-trial iterate: current estimates, smoothing history, time index.

    ``history`` holds the last P inputs of the temporal-smoothing stage
    (newest first); it stays empty when smoothing is off.  The adaptive
    weight state and the live A2 entries ride along when enabled.
    """

    w: np.ndarray  # (N, M)
    history: list = field(default_factory=list)
    i: int = 0
    weights_state: combiners.VarianceProductState | None = None
    a2_dynamic: np.ndarray | None = None


def init_state(cfg: DiffusionConfig, m: int, topology=None, w0=None) -> NetworkState:
    """Fresh state: all estimates start at zero unless ``w0`` is given."""
    n = cfg.n
    w = np.zeros((n, m)) if w0 is None else np.array(w0, dtype=float).reshape(n, m)
    state = NetworkState(w=w)
    if cfg.adaptive_weights is not None:
        if topology is None:
            topology = cfg.a2.supported_on
        if topology is None:
            raise ValidationError("adaptive weights need a topology (set supported_on on a2)")
        state.weights_state = combiners.init_variance_state(topology, cfg.adaptive_weights.nu)
        state.a2_dynamic = cfg.a2.entries.copy()
    return state


def _lms_update(x, snapshot: Snapshot, mu, c_entries, c_identity, d_recv=None):
    """One gradient-noise update around the base point ``x`` (N, M)."""
    u, d = snapshot.u, snapshot.d
    if c_identity:
        err = d - np.einsum("km,km->k", u, x)
        return x + (mu * err)[:, None] * u
    dm = d[:, None] if d_recv is None else d_recv
    e = dm - u @ x.T  # e[l, k] = d_lk - u_l phi_k
    g = (c_entries * e).T @ u  # (N, M)
    return x + mu[:, None] * g


def adaptive_step(
    state: NetworkState,
    cfg: DiffusionConfig,
    snapshot: Snapshot,
    link_draws: LinkDraws | None = None,
) -> NetworkState:
    """One adaptive diffusion step; handles noisy links and adaptive weights.

    ``link_draws`` must be supplied exactly when ``cfg.link_noise`` is set.
    """
    if cfg.variant == CONSENSUS_LMS:
        raise PreconditionError("use consensus_lms_step for the consensus variant")
    noisy = cfg.link_noise is not None
    if noisy and link_draws is None:
        raise PreconditionError("link noise configured but no link draws supplied")
    if snapshot.u.shape[0] != cfg.n:
        raise ValidationError("snapshot size does not match configuration")
    w_prev = state.w

    if cfg._a1_identity:
        phi = w_prev
    elif noisy:
        phi = cfg._a1t @ w_prev + np.einsum("lk,lkm->km", cfg.a1.entries, link_draws.vw)
    else:
        phi = cfg._a1t @ w_prev

    d_recv = None
    if noisy and not cfg._c_identity:
        d_recv = snapshot.d[:, None] + link_draws.vd
    psi = _lms_update(phi, snapshot, cfg.mu, cfg._c, cfg._c_identity, d_recv)

    if cfg.adaptive_weights is not None:
        psi_recv = psi[:, None, :] + link_draws.vpsi if noisy else psi
        state.weights_state, entries, _ = combiners.adapt_weights_all(
            state.weights_state, psi_recv, w_prev, cfg.adaptive_weights.floor
        )
        state.a2_dynamic = entries
        if noisy:
            w = np.einsum("lk,lkm->km", entries, psi[:, None, :] + link_draws.vpsi)
        else:
            w = entries.T @ psi
    elif cfg._a2_identity:
        w = psi
    elif noisy:
        w = cfg._a2t @ psi + np.einsum("lk,lkm->km", cfg.a2.entries, link_draws.vpsi)
    else:
        w = cfg._a2t @ psi

    state.w = w
    state.i += 1
    return state


def consensus_lms_step(state: NetworkState, a, mu, snapshot: Snapshot) -> NetworkState:
    """Consensus update: combine prior iterates, adapt around the node's own
    previous estimate (not the combined one)."""
    a_entries = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (state.w.shape[0],))
    u, d = snapshot.u, snapshot.d
    err = d - np.einsum("km,km->k", u, state.w)
    state.w = a_entries.T @ state.w + (mu * err)[:, None] * u
    state.i += 1
    return state


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
    state.i += 1
    return state


def smoothing_step(state: NetworkState, cfg: DiffusionConfig, snapshot: Snapshot) -> NetworkState:
    """One step of a temporal-smoothing variant (orders TSA..AST).

    The T stage filters the node's own history of its input stream with taps
    ``f``; during warm-up the available prefix is renormalized (the tap
    columns for every prefix length are built once by the config).  The A
    stage uses the scaled weights ``q_l * c_lk``.
    """
    sm = cfg.smoothing
    if sm is None:
        raise PreconditionError("smoothing_step requires cfg.smoothing")
    x = state.w
    for stage in sm.order:
        if stage == "A":
            x = _lms_update(x, snapshot, cfg.mu, cfg._c_smooth, cfg._c_smooth_identity)
        elif stage == "S":
            x = cfg._a2t @ x
        else:  # T
            state.history.insert(0, x)
            del state.history[sm.depth:]
            taps = cfg._smooth_taps[len(state.history) - 1]
            x = sum(tap * h for tap, h in zip(taps, state.history))
    state.w = x
    state.i += 1
    return state


def consensus_error_curve(a, z0, n_iters: int) -> np.ndarray:
    """Euclidean distance to the initial block average after each iteration."""
    a_entries = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    z = np.atleast_2d(np.array(z0, dtype=float).T).T
    target = z.mean(axis=0)
    errs = np.empty(n_iters)
    for it in range(n_iters):
        z = a_entries.T @ z
        errs[it] = np.linalg.norm(z - target[None, :])
    return errs


def fit_geometric_rate(errors, skip_frac: float = 0.3, floor: float = 1e-11) -> float:
    """Least-squares slope fit of log-error, skipping the initial transient
    and anything at the numerical floor.  Returns the per-iteration rate."""
    errors = np.asarray(errors, dtype=float)
    idx = np.flatnonzero(errors > floor)
    if idx.size < 5:
        raise PreconditionError("too few points above the floor to fit a rate")
    idx = idx[int(skip_frac * idx.size):]
    if idx.size < 3:
        raise PreconditionError("too few points left after transient skip")
    slope = np.polyfit(idx.astype(float), np.log(errors[idx]), 1)[0]
    return float(np.exp(slope))


def step_size_bounds(model: EnsembleModel, c) -> np.ndarray:
    """Per-node stability bounds ``2 / lambda_max(R_k)`` with
    ``R_k = sum_l c_lk R_{u,l}``."""
    c_entries = c.entries if isinstance(c, CombinationMatrix) else np.asarray(c, dtype=float)
    if RIGHT not in classify_stochastic(c_entries, 1e-9):
        raise PreconditionError("c must be right-stochastic")
    rk = np.einsum("lk,lmn->kmn", c_entries, model.ru)
    lam_max = np.linalg.eigvalsh(rk)[:, -1]
    return 2.0 / lam_max


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


@dataclass
class TrialResult:
    """Per-iteration error curves of a single simulated trial."""

    msd_node: np.ndarray  # (iters, N) squared deviation per node
    emse_node: np.ndarray  # (iters, N) R_u-weighted squared deviation per node
    state: NetworkState
    diverged: bool
    diverged_at: int | None


# steps buffered between the vectorized error-metric reductions of a trial
_METRIC_BLOCK = 64


def simulate_trial(
    model: EnsembleModel,
    cfg: DiffusionConfig,
    iterations: int,
    rng,
    topology=None,
    w0=None,
) -> TrialResult:
    """Run one trial of the configured strategy on freshly sampled data.

    The loop only samples and steps; the iterates of each block of
    ``_METRIC_BLOCK`` steps are buffered and their per-node errors reduced
    together.  Divergence trips a scale-aware sentinel: the curves keep the
    entry of the first step past it and read infinity after it.  It is
    reported, not raised.  A diverged trial's ``state`` is the one at the end
    of that step's block, so its generator has also advanced that far.
    """
    state = init_state(cfg, model.m, topology=topology, w0=w0)
    msd_node = np.empty((iterations, model.n))
    emse_node = np.empty((iterations, model.n))
    block = np.empty((min(_METRIC_BLOCK, iterations), model.n, model.m))
    wo = model.wo
    ru = model.ru
    lm = cfg.link_noise
    smoothing = cfg.smoothing is not None
    consensus = cfg.variant == CONSENSUS_LMS
    sentinel2 = (SENTINEL * (1.0 + np.linalg.norm(wo))) ** 2
    diverged_at = None

    # steps past a divergence within its block overflow; the sentinel reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, iterations, _METRIC_BLOCK):
            ws = block[: min(_METRIC_BLOCK, iterations - start)]
            for j in range(ws.shape[0]):
                snap = sample_snapshot(model, rng)
                if consensus:
                    state = consensus_lms_step(state, cfg.a2, cfg.mu, snap)
                elif smoothing:
                    state = smoothing_step(state, cfg, snap)
                elif lm is not None:
                    state = adaptive_step(state, cfg, snap, sample_link_noise(lm, rng))
                else:
                    state = adaptive_step(state, cfg, snap)
                ws[j] = state.w
            stop = start + ws.shape[0]
            err = wo - ws
            msd_node[start:stop] = (err**2).sum(axis=2)
            emse_node[start:stop] = np.einsum("tkm,kmn,tkn->tk", err, ru, err)
            scale = (ws.reshape(ws.shape[0], -1) ** 2).sum(axis=1)
            crossed = np.flatnonzero(~(scale <= sentinel2))  # past the sentinel, or NaN
            if crossed.size:
                diverged_at = start + int(crossed[0])
                msd_node[diverged_at + 1:] = np.inf
                emse_node[diverged_at + 1:] = np.inf
                break

    return TrialResult(
        msd_node=msd_node,
        emse_node=emse_node,
        state=state,
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
    )


def run_steepest_descent(
    model: EnsembleModel, cfg: DiffusionConfig, iterations: int, w0=None
) -> tuple[np.ndarray, NetworkState]:
    """Deterministic trajectory of ||w_i - wo|| per iteration: the diffusion
    step driven by the true moments, i.e. the generic cost step with the
    quadratic gradient ``R_u,l w - r_du,l``."""
    if cfg.variant == CONSENSUS_LMS:
        raise PreconditionError("steepest-descent form not defined for the consensus variant")
    if model.n != cfg.n:
        raise ValidationError("model size does not match configuration")

    def gradient(l, w):
        return model.ru[l] @ w - model.rdu[l]

    state = init_state(cfg, model.m, w0=w0)
    dev = np.empty(iterations)
    sentinel = SENTINEL * (1.0 + np.linalg.norm(model.wo))
    for i in range(iterations):
        state = generic_cost_step(state, cfg, gradient)
        dev[i] = np.linalg.norm(model.wo[None, :] - state.w)
        if not np.isfinite(dev[i]) or np.linalg.norm(state.w) > sentinel:
            dev[i + 1:] = np.inf
            break
    return dev, state


def trial_rngs(seed: int, trials: int) -> list:
    """Deterministic, order-independent per-trial generators."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trials)]


@dataclass
class MonteCarloResult:
    """Trial-averaged error curves; reduction runs in fixed trial order."""

    msd_node_curve: np.ndarray  # (iters, N)
    emse_node_curve: np.ndarray  # (iters, N)
    trials: int
    diverged_trials: int

    @property
    def msd_curve(self) -> np.ndarray:
        return self.msd_node_curve.mean(axis=1)

    @property
    def emse_curve(self) -> np.ndarray:
        return self.emse_node_curve.mean(axis=1)


def steady_state(curve, window_frac: float = 0.1) -> np.ndarray:
    """Mean over the trailing window (default: final 10% of iterations)."""
    curve = np.asarray(curve)
    w = max(1, int(round(window_frac * curve.shape[0])))
    return curve[-w:].mean(axis=0)


def run_trials(
    model: EnsembleModel,
    cfg: DiffusionConfig,
    iterations: int,
    trials: int,
    seed: int,
    topology=None,
    w0=None,
) -> MonteCarloResult:
    """Average ``simulate_trial`` over independent seeded trials."""
    msd_sum = np.zeros((iterations, model.n))
    emse_sum = np.zeros((iterations, model.n))
    diverged = 0
    for rng in trial_rngs(seed, trials):
        res = simulate_trial(model, cfg, iterations, rng, topology=topology, w0=w0)
        msd_sum += res.msd_node
        emse_sum += res.emse_node
        diverged += int(res.diverged)
    return MonteCarloResult(
        msd_node_curve=msd_sum / trials,
        emse_node_curve=emse_sum / trials,
        trials=trials,
        diverged_trials=diverged,
    )
