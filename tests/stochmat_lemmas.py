"""Paper lemmas on combination matrices, kept as test helpers: regularity
(a power of A is entrywise positive), the block maximum norm and its induced
forms, the bound rho(A2' D A1') <= max_k rho(D_k) for left-stochastic A1, A2
and block-diagonal symmetric D, and Sinkhorn scaling to doubly stochastic
form.  ``tests/test_stochmat.py`` checks the lemmas on worked examples and
random matrices.
"""

import numpy as np

from diffnet.errors import NumericalError, PreconditionError, ValidationError
from diffnet.stochmat import LEFT, CombinationMatrix, classify_stochastic, kron_identity


# Wielandt primitivity bound: a primitive N x N matrix has a strictly
# positive power no later than (N-1)^2 + 1.
def _regularity_power_cap(n: int) -> int:
    return (n - 1) ** 2 + 1


def is_regular(a, positive_tol: float = 1e-12) -> tuple[bool, int | None]:
    """Whether some power of the matrix is entrywise strictly positive.

    Returns ``(True, j0)`` with the smallest witness power, or
    ``(False, None)``.  Powers are searched up to ``(N-1)^2 + 1``, which is
    tight for primitive matrices.  Each power is normalized to unit maximum
    entry before thresholding so that repeated squaring of sub-unit values
    cannot underflow to spurious zeros.
    """
    x = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    n = x.shape[0]
    power = np.eye(n)
    for j in range(1, _regularity_power_cap(n) + 1):
        power = power @ x
        m = power.max()
        if m <= 0:
            return False, None
        power = power / m
        if np.all(power > positive_tol):
            return True, j
    return False, None


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude, from a full dense eigendecomposition."""
    x = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(x)):
        raise PreconditionError("matrix entries must be finite")
    return float(np.abs(np.linalg.eigvals(x)).max(initial=0.0))


def block_max_norm(x, block_size: int) -> float:
    """Maximum Euclidean norm over the M-sized blocks of a stacked vector."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if block_size < 1 or v.size % block_size:
        raise ValidationError(f"vector of size {v.size} not divisible into blocks of {block_size}")
    blocks = v.reshape(-1, block_size)
    return float(np.sqrt((blocks**2).sum(axis=1)).max(initial=0.0))


def block_max_norm_kron(a) -> float:
    """Induced block maximum norm of ``A (x) I_M``: the max absolute row sum of A."""
    x = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    return float(np.abs(x).sum(axis=1).max(initial=0.0))


def block_max_norm_blockdiag(d_blocks, sym_tol: float = 1e-10) -> float:
    """Induced block maximum norm of a block-diagonal symmetric matrix.

    Equals the largest spectral radius over the blocks.  Non-symmetric blocks
    are rejected: the identity only holds in the Hermitian case.
    """
    blocks = np.asarray(d_blocks, dtype=float)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValidationError(f"expected (N, M, M) blocks, got {blocks.shape}")
    asym = np.abs(blocks - blocks.transpose(0, 2, 1)).max(initial=0.0)
    if asym > sym_tol:
        raise PreconditionError(f"blocks must be symmetric (max asymmetry {asym:.3e})")
    return float(max(np.abs(np.linalg.eigvalsh(b)).max() for b in blocks))


def block_norm_bounds(blockmat, block_size: int) -> tuple[float, float]:
    """Bracket for the induced block maximum norm of an arbitrary block matrix.

    The exact norm is not computed in general; it lies between the largest
    block 2-norm and N times that value.
    """
    x = np.asarray(blockmat, dtype=float)
    nm = x.shape[0]
    if x.ndim != 2 or x.shape[0] != x.shape[1] or nm % block_size:
        raise ValidationError("block matrix shape incompatible with block size")
    n = nm // block_size
    big = x.reshape(n, block_size, n, block_size)
    norms = np.linalg.norm(big.transpose(0, 2, 1, 3), ord=2, axis=(2, 3))
    top = float(norms.max(initial=0.0))
    return top, n * top


def transformed_block_spectral_check(a1, a2, d_blocks, tol: float = 1e-10) -> dict:
    """Verify ``rho(A2^T D A1^T) <= max_k rho(D_k)`` for left-stochastic A1, A2.

    ``D`` is block diagonal with symmetric blocks.  The inequality is a
    theorem; a violation beyond ``tol`` indicates an implementation bug and
    raises ``AssertionError`` rather than returning ``holds=False``.
    """
    blocks = np.asarray(d_blocks, dtype=float)
    m = blocks.shape[1]
    a1m = a1.entries if isinstance(a1, CombinationMatrix) else np.asarray(a1, dtype=float)
    a2m = a2.entries if isinstance(a2, CombinationMatrix) else np.asarray(a2, dtype=float)
    for name, mat in (("a1", a1m), ("a2", a2m)):
        if LEFT not in classify_stochastic(mat, 1e-9):
            raise PreconditionError(f"{name} is not left-stochastic")
    rhs = block_max_norm_blockdiag(blocks)
    d = np.zeros((blocks.shape[0] * m, blocks.shape[0] * m))
    for k, b in enumerate(blocks):
        d[k * m : (k + 1) * m, k * m : (k + 1) * m] = b
    prod = kron_identity(a2m.T, m) @ d @ kron_identity(a1m.T, m)
    lhs = spectral_radius(prod)
    holds = lhs <= rhs + tol
    if not holds:
        raise AssertionError(
            f"block spectral inequality violated: rho(product)={lhs:.12g} > max rho(D_k)={rhs:.12g}"
        )
    return {"lhs": lhs, "rhs": rhs, "holds": holds}


def sinkhorn_normalize(matrix, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Scale a positive matrix to doubly stochastic form by alternating
    row/column normalization."""
    x = np.asarray(matrix, dtype=float).copy()
    if x.min() <= 0:
        raise PreconditionError("Sinkhorn normalization needs strictly positive entries")
    for _ in range(max_iter):
        x /= x.sum(axis=1, keepdims=True)
        x /= x.sum(axis=0, keepdims=True)
        if (
            np.abs(x.sum(axis=1) - 1.0).max() <= tol
            and np.abs(x.sum(axis=0) - 1.0).max() <= tol
        ):
            return x
    raise NumericalError("Sinkhorn normalization did not converge")
