"""Iterative strategies: adaptive diffusion LMS, the consensus baselines and
the temporal-smoothing variants, with the Monte Carlo trial loop.

The general diffusion step with matrices {A1, C, A2} is

    phi_k = sum_l a1_lk w_l
    psi_k = phi_k + mu_k * sum_l c_lk * u_l' (d_l - u_l phi_k)
    w_k   = sum_l a2_lk psi_l

ATC is (A1=I, A2=A), CTA is (A1=A, A2=I), and the non-cooperative mode is
(A1=A2=C=I).  The consensus baseline combines prior neighbor iterates but
adapts around the node's own previous estimate instead of the combined one.
Consensus LMS takes no extension, and smoothing takes neither noisy links nor
adaptive weights: the step loop has no form for those combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import combiners
from .datamodel import EnsembleModel, LinkDraws, LinkNoiseModel, Snapshot, sample_link_noise, sample_snapshot
from .errors import PreconditionError, ValidationError
from .stochmat import DOUBLY, LEFT, RIGHT, CombinationMatrix

SMOOTHING_ORDERS = ("TSA", "TAS", "STA", "ATS", "SAT", "AST")

# scale-aware divergence sentinel: trip when ||w|| > SENTINEL * (1 + ||wo||)
SENTINEL = 1e9

# trailing share of a curve that steady_state averages
STEADY_STATE_WINDOW = 0.1
# fit_geometric_rate drops this leading share of the points above RATE_FLOOR
RATE_SKIP_FRAC = 0.3
RATE_FLOOR = 1e-11


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

    nu: np.ndarray | float


@dataclass
class DiffusionConfig:
    """Matrices, step sizes, and optional extensions for one strategy.

    ``consensus`` selects the consensus LMS step, which combines with ``a2``
    and adapts around the node's own previous estimate.
    """

    a1: CombinationMatrix
    a2: CombinationMatrix
    c: CombinationMatrix
    mu: np.ndarray
    consensus: bool = False
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
        extensions = [name for name in ("link_noise", "adaptive_weights") if getattr(self, name) is not None]
        if self.consensus and (extensions or self.smoothing is not None):
            raise ValidationError("consensus_lms takes no link_noise, adaptive_weights or smoothing")
        if self.smoothing is not None and extensions:
            raise ValidationError(f"smoothing does not combine with {' or '.join(extensions)}")

        eye = np.eye(n)
        self._a1t = self.a1.entries.T.copy()
        self._a2t = self.a2.entries.T.copy()
        self._c = self.c.entries.copy()
        self._a1_identity = np.array_equal(self.a1.entries, eye)
        self._a2_identity = np.array_equal(self.a2.entries, eye)
        self._c_identity = np.array_equal(self._c, eye)

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


@dataclass
class NetworkState:
    """Per-trial iterate: current estimates and smoothing history.

    ``history`` holds the last P inputs of the temporal-smoothing stage
    (newest first); it stays empty when smoothing is off.  The adaptive
    weight state and the live A2 entries ride along when enabled.
    """

    w: np.ndarray  # (N, M)
    history: list = field(default_factory=list)
    weights_state: combiners.VarianceProductState | None = None
    a2_dynamic: np.ndarray | None = None


def init_state(cfg: DiffusionConfig, m: int) -> NetworkState:
    """Fresh state: all estimates start at zero.  Adaptive weights live on
    the support of ``cfg.a2``."""
    state = NetworkState(w=np.zeros((cfg.n, m)))
    if cfg.adaptive_weights is not None:
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
    if cfg.consensus:
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

    # w_k = sum_l a2_lk (psi_l + vpsi_lk), formed as A2' psi plus the noise
    # term, so that zero draws leave the perfect-exchange result bit for bit
    if cfg.adaptive_weights is not None:
        psi_recv = psi[:, None, :] + link_draws.vpsi if noisy else psi
        state.weights_state, a2 = combiners.adapt_weights_all(state.weights_state, psi_recv, w_prev)
        state.a2_dynamic = a2
        w = a2.T @ psi
    elif cfg._a2_identity:
        a2, w = None, psi  # self pairs carry no link noise
    else:
        a2, w = cfg.a2.entries, cfg._a2t @ psi
    if noisy and a2 is not None:
        w = w + np.einsum("lk,lkm->km", a2, link_draws.vpsi)

    state.w = w
    return state


def consensus_lms_step(state: NetworkState, cfg: DiffusionConfig, snapshot: Snapshot) -> NetworkState:
    """Consensus update: combine prior iterates with ``cfg.a2``, adapt around
    the node's own previous estimate (not the combined one)."""
    u, d = snapshot.u, snapshot.d
    err = d - np.einsum("km,km->k", u, state.w)
    state.w = cfg._a2t @ state.w + (cfg.mu * err)[:, None] * u
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


def fit_geometric_rate(errors) -> float:
    """Least-squares slope fit of log-error, skipping the initial transient
    and anything at the numerical floor.  Returns the per-iteration rate."""
    errors = np.asarray(errors, dtype=float)
    idx = np.flatnonzero(errors > RATE_FLOOR)
    if idx.size < 5:
        raise PreconditionError("too few points above the floor to fit a rate")
    idx = idx[int(RATE_SKIP_FRAC * idx.size):]
    if idx.size < 3:
        raise PreconditionError("too few points left after transient skip")
    slope = np.polyfit(idx.astype(float), np.log(errors[idx]), 1)[0]
    return float(np.exp(slope))


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
) -> TrialResult:
    """Run one trial of the configured strategy on freshly sampled data.

    The loop only samples and steps; the iterates of each block of
    ``_METRIC_BLOCK`` steps are buffered and their per-node errors reduced
    together.  Divergence trips a scale-aware sentinel: the curves keep the
    entry of the first step past it and read infinity after it.  It is
    reported, not raised.  A diverged trial's ``state`` is the one at the end
    of that step's block, so its generator has also advanced that far.
    """
    state = init_state(cfg, model.m)
    msd_node = np.empty((iterations, model.n))
    emse_node = np.empty((iterations, model.n))
    block = np.empty((min(_METRIC_BLOCK, iterations), model.n, model.m))
    wo = model.wo
    ru = model.ru
    lm = cfg.link_noise
    smoothing = cfg.smoothing is not None
    sentinel2 = (SENTINEL * (1.0 + np.linalg.norm(wo))) ** 2
    diverged_at = None

    # steps past a divergence within its block overflow; the sentinel reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, iterations, _METRIC_BLOCK):
            ws = block[: min(_METRIC_BLOCK, iterations - start)]
            for j in range(ws.shape[0]):
                snap = sample_snapshot(model, rng)
                if cfg.consensus:
                    state = consensus_lms_step(state, cfg, snap)
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


def steady_state(curve) -> np.ndarray:
    """Mean over the trailing ``STEADY_STATE_WINDOW`` share of iterations."""
    curve = np.asarray(curve)
    w = max(1, int(round(STEADY_STATE_WINDOW * curve.shape[0])))
    return curve[-w:].mean(axis=0)


def run_trials(
    model: EnsembleModel,
    cfg: DiffusionConfig,
    iterations: int,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Average ``simulate_trial`` over independent seeded trials."""
    msd_sum = np.zeros((iterations, model.n))
    emse_sum = np.zeros((iterations, model.n))
    diverged = 0
    for rng in trial_rngs(seed, trials):
        res = simulate_trial(model, cfg, iterations, rng)
        msd_sum += res.msd_node
        emse_sum += res.emse_node
        diverged += int(res.diverged)
    return MonteCarloResult(
        msd_node_curve=msd_sum / trials,
        emse_node_curve=emse_sum / trials,
        trials=trials,
        diverged_trials=diverged,
    )
