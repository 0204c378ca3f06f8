"""Independent steady-state theory oracle.

Rebuilds the mean-error matrix B and the noise covariance Y of a diffusion
strategy from the ``inputs`` block that ``summary.json`` and ``theory.json``
log, and solves the steady-state variance relation X = B X B' + Y with
``scipy.linalg.solve_discrete_lyapunov``.  The network MSD is Tr(X) / N.

Nothing here imports ``diffnet``: the reference must not move when the
library's analysis code is refactored.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import block_diag, solve_discrete_lyapunov


def assemble(inputs: dict) -> tuple[np.ndarray, np.ndarray]:
    """B = A2' (I - M R) A1' and Y = G S G' with G = A2' M C' (Kronecker form).

    R = blockdiag{sum_l c_lk R_u,l}, S = blockdiag{sigma2_v,k R_u,k} and
    M = diag{mu_k I_M}; primes on A1, A2, C denote (X' kron I_M).
    """
    model = inputs["model"]
    ru = np.asarray(model["ru"], dtype=float)
    sigma2_v = np.asarray(model["sigma2_v"], dtype=float)
    a1 = np.asarray(inputs["a1"], dtype=float)
    a2 = np.asarray(inputs["a2"], dtype=float)
    c = np.asarray(inputs["c"], dtype=float)
    mu = np.asarray(inputs["mu"], dtype=float)
    n, m = ru.shape[0], ru.shape[1]
    eye_m = np.eye(m)
    r = block_diag(*np.einsum("lk,lij->kij", c, ru))
    s = block_diag(*(sigma2_v[:, None, None] * ru))
    step = np.kron(np.diag(mu), eye_m)
    a1t, a2t, ct = (np.kron(x.T, eye_m) for x in (a1, a2, c))
    b = a2t @ (np.eye(n * m) - step @ r) @ a1t
    g = a2t @ step @ ct
    return b, g @ s @ g.T


def lyapunov_msd(b: np.ndarray, y: np.ndarray, n: int) -> float:
    """Network MSD Tr(X)/N with X the Bartels-Stewart solution of X = BXB' + Y."""
    x = solve_discrete_lyapunov(b, y, method="bilinear")
    return float(np.trace(x)) / n


def kronecker_msd(b: np.ndarray, y: np.ndarray, n: int) -> float:
    """Network MSD from the dense (NM)^2 system (I - B kron B) vec(X) = vec(Y).

    Costs O((NM)^6); only the benchmark's tests use it, at small NM.
    """
    nm = b.shape[0]
    x = np.linalg.solve(np.eye(nm * nm) - np.kron(b, b), y.flatten(order="F"))
    return float(np.trace(x.reshape(nm, nm, order="F"))) / n


def reference_msd(inputs: dict) -> float:
    b, y = assemble(inputs)
    return lyapunov_msd(b, y, len(inputs["mu"]))
