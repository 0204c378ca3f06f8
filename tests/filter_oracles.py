"""Per-node reference forms of the diffusion RLS and Kalman steps.

These are the loops that the batched kernels of ``diffnet.rls`` and
``diffnet.kalman`` replaced.  Every step advances a list of per-node states,
one node and one neighbor at a time:

- diffusion RLS in its rank-one form (``drls_step``) and its inverse form
  (``drls_alt_step``), and consensus RLS (``crls_step``);
- diffusion Kalman in its time/measurement form (``dkf_tm_step``) and its
  information form (``dkf_info_step``), and the consensus Kalman baseline
  (``ckf_step``);
- the step-by-step, node-by-node draw of a state trajectory and its
  measurements (``simulate_state_trajectory``);
- the exponentially weighted least-squares solution over the whole history
  of one node (``batch_weighted_ls``), which single-node RLS must track.

Neighbor visits run in ascending node index.  The tests compare the kernels
with these forms; ``stack`` turns a list of node states into the kernels'
stacked arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from diffnet.errors import NumericalError


def stack(states, name: str) -> np.ndarray:
    """One field of every node state, stacked over the nodes."""
    return np.array([getattr(s, name) for s in states])


def _weights(a) -> np.ndarray:
    return a.entries if hasattr(a, "entries") else np.asarray(a, dtype=float)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _combine(a_e, t, psis, k):
    return sum(a_e[l, k] * psis[l] for l in t.neighborhoods[k] if a_e[l, k] != 0.0)


@dataclass
class RlsNodeState:
    w: np.ndarray  # (M,)
    p: np.ndarray  # (M, M)
    lam: float
    psi: np.ndarray


def init_states(n: int, m: int, lam: float, delta: float):
    return [RlsNodeState(w=np.zeros(m), p=delta * np.eye(m), lam=lam, psi=np.zeros(m))
            for _ in range(n)]


def drls_step(states, t, a, c, snapshot):
    """Rank-one diffusion RLS: per node, scale P by 1/lambda, apply the
    scalar-gain update of each neighbor l with weight c_lk, then combine."""
    a_e, c_e = _weights(a), _weights(c)
    u, d = snapshot.u, snapshot.d
    psis, new_ps = [], []
    for k in range(t.n):
        st = states[k]
        psi = st.w.copy()
        p = st.p / st.lam
        for l in t.neighborhoods[k]:
            clk = c_e[l, k]
            if clk == 0.0:
                continue
            ul = u[l]
            pu = p @ ul
            denom = 1.0 + clk * (ul @ pu)
            if denom <= 0.0:
                raise NumericalError(f"nonpositive gain denominator at node {k}")
            gain = (clk / denom) * pu
            psi = psi + gain * (d[l] - ul @ psi)
            p = p - np.outer(gain, pu)
        psis.append(psi)
        new_ps.append(_symmetrize(p))
    return [RlsNodeState(w=np.asarray(_combine(a_e, t, psis, k)), p=new_ps[k],
                         lam=states[k].lam, psi=psis[k]) for k in range(t.n)]


def drls_alt_step(states, t, a, c, snapshot):
    """Inverse-form diffusion RLS: combine the previous intermediate
    estimates, update (P^-1, q) with the neighborhood data, recover psi = P q."""
    a_e, c_e = _weights(a), _weights(c)
    u, d = snapshot.u, snapshot.d
    out = []
    for k in range(t.n):
        st = states[k]
        w = _combine(a_e, t, [s.psi for s in states], k)
        pinv_prev = np.linalg.inv(st.p)
        pinv = st.lam * pinv_prev
        q = st.lam * (pinv_prev @ w)
        for l in t.neighborhoods[k]:
            clk = c_e[l, k]
            if clk == 0.0:
                continue
            pinv = pinv + clk * np.outer(u[l], u[l])
            q = q + clk * d[l] * u[l]
        p = _symmetrize(np.linalg.inv(pinv))
        out.append(RlsNodeState(w=w, p=p, lam=st.lam, psi=p @ q))
    # report the post-combination estimate of this step alongside psi
    psis = [s.psi for s in out]
    return [replace(out[k], w=_combine(a_e, t, psis, k)) for k in range(t.n)]


def batch_weighted_ls(u_hist, d_hist, lam: float, delta: float) -> np.ndarray:
    """Exponentially weighted regularized least squares on the full history.

    Solves ``min_w lam^(i+1)/delta ||w||^2 + sum_j lam^(i-j) |d_j - u_j w|^2``
    for a single node; the growing-window oracle for N = 1 RLS.
    """
    u_hist = np.asarray(u_hist, dtype=float)
    d_hist = np.asarray(d_hist, dtype=float)
    i = u_hist.shape[0] - 1
    m = u_hist.shape[1]
    weights = lam ** (i - np.arange(i + 1))
    gram = (u_hist * weights[:, None]).T @ u_hist + (lam ** (i + 1) / delta) * np.eye(m)
    rhs = (u_hist * weights[:, None]).T @ d_hist
    return np.linalg.solve(gram, rhs)


@dataclass
class CrlsNodeState:
    pinv: np.ndarray
    q: np.ndarray
    psi: np.ndarray


def init_crls_states(n: int, m: int, delta: float):
    return [CrlsNodeState(pinv=np.eye(m) / delta, q=np.zeros(m), psi=np.zeros(m))
            for _ in range(n)]


def crls_step(states, t, c, snapshot):
    """Consensus RLS: average the neighbors' information pairs plus their
    fresh data, then solve for psi."""
    c_e = _weights(c)
    u, d = snapshot.u, snapshot.d
    m = u.shape[1]
    out = []
    for k in range(t.n):
        pinv = np.zeros((m, m))
        q = np.zeros(m)
        for l in t.neighborhoods[k]:
            clk = c_e[l, k]
            if clk == 0.0:
                continue
            pinv = pinv + clk * (states[l].pinv + np.outer(u[l], u[l]))
            q = q + clk * (states[l].q + d[l] * u[l])
        pinv = _symmetrize(pinv)
        out.append(CrlsNodeState(pinv=pinv, q=q, psi=np.linalg.solve(pinv, q)))
    return out


@dataclass
class KfNodeState:
    x_pred: np.ndarray
    p_pred: np.ndarray
    x_filt: np.ndarray | None = None
    p_filt: np.ndarray | None = None
    psi: np.ndarray | None = None


def init_kf_states(model):
    return [KfNodeState(x_pred=np.zeros(model.state_dim), p_pred=model.pi0.copy())
            for _ in range(model.n_nodes)]


def _time_update(model, x_filt, p_filt):
    f, g = model.f, model.g
    return f @ x_filt, _symmetrize(f @ p_filt @ f.T + g @ model.q @ g.T)


def _finish(model, psis, ps, combined):
    out = []
    for k, x_filt in enumerate(combined):
        x_pred, p_pred = _time_update(model, x_filt, ps[k])
        out.append(KfNodeState(x_pred=x_pred, p_pred=p_pred, x_filt=np.asarray(x_filt),
                               p_filt=ps[k], psi=psis[k]))
    return out


def dkf_tm_step(states, t, a, model, y):
    """Time/measurement form: sequential neighbor measurement updates with
    innovation covariance R_l + H_l P H_l', combination, time update."""
    a_e = _weights(a)
    psis, ps = [], []
    for k in range(t.n):
        psi = states[k].x_pred.copy()
        p = states[k].p_pred.copy()
        for l in t.neighborhoods[k]:
            hl = model.h[l]
            re_chol = np.linalg.cholesky(_symmetrize(model.r[l] + hl @ p @ hl.T))
            gain = np.linalg.solve(re_chol.T, np.linalg.solve(re_chol, hl @ p)).T
            psi = psi + gain @ (y[l] - hl @ psi)
            p = _symmetrize(p - gain @ hl @ p)
        psis.append(psi)
        ps.append(p)
    return _finish(model, psis, ps, [_combine(a_e, t, psis, k) for k in range(t.n)])


def _info_updates(states, t, model, y):
    """Information-form updates with S_k = sum H'R^-1 H and q_k = sum H'R^-1 y;
    needs an invertible predicted covariance."""
    n = model.state_dim
    psis, ps = [], []
    for k in range(t.n):
        sk = np.zeros((n, n))
        qk = np.zeros(n)
        for l in t.neighborhoods[k]:
            rl_inv_h = np.linalg.solve(model.r[l], model.h[l])
            sk += model.h[l].T @ rl_inv_h
            qk += rl_inv_h.T @ y[l]
        try:
            p_pred_inv = np.linalg.inv(states[k].p_pred)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular predicted covariance at node {k}") from exc
        p_filt = _symmetrize(np.linalg.inv(_symmetrize(p_pred_inv + sk)))
        psis.append(states[k].x_pred + p_filt @ (qk - sk @ states[k].x_pred))
        ps.append(p_filt)
    return psis, ps


def dkf_info_step(states, t, a, model, y):
    """Information form of the diffusion Kalman step."""
    a_e = _weights(a)
    psis, ps = _info_updates(states, t, model, y)
    return _finish(model, psis, ps, [_combine(a_e, t, psis, k) for k in range(t.n)])


def ckf_combine(psis, t, epsilon: float):
    """Weight 1 + eps - n_k eps on the node's own estimate, eps on each neighbor's."""
    out = []
    for k in range(t.n):
        x = (1.0 + epsilon - t.degrees[k] * epsilon) * psis[k]
        for l in t.neighborhoods[k]:
            if l != k:
                x = x + epsilon * psis[l]
        out.append(x)
    return out


def ckf_step(states, t, model, y, epsilon: float):
    """Consensus Kalman: information-form update, then the epsilon combination."""
    psis, ps = _info_updates(states, t, model, y)
    return _finish(model, psis, ps, ckf_combine(psis, t, epsilon))


def simulate_state_trajectory(model, steps: int, rng):
    """Per step: every node's measurement noise in turn, then the process noise."""
    n = model.state_dim
    x = np.linalg.cholesky(model.pi0) @ rng.standard_normal(n)
    vals, vecs = np.linalg.eigh(_symmetrize(model.q))
    q_chol = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    xs = np.empty((steps, n))
    ys = np.empty((steps, model.n_nodes, model.meas_dim))
    for i in range(steps):
        xs[i] = x
        for k in range(model.n_nodes):
            noise = np.linalg.cholesky(model.r[k]) @ rng.standard_normal(model.meas_dim)
            ys[i, k] = model.h[k] @ x + noise
        x = model.f @ x + model.g @ (q_chol @ rng.standard_normal(model.q.shape[0]))
    return xs, ys
