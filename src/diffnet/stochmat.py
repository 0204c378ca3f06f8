"""Stochastic-matrix classification, regularity, and block-maximum-norm toolkit.

Combination matrices are N x N nonnegative.  A left-stochastic matrix has
unit column sums (``A^T 1 = 1``), a right-stochastic matrix has unit row sums
(``C 1 = 1``), and a doubly stochastic matrix has both.  Entry ``(l, k)``
weights the data node ``k`` receives from node ``l``, so it may be nonzero
only when ``l`` is a neighbor of ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InternalCheckError, NumericalError, PreconditionError, ValidationError
from .graph import NeighborSum, Topology

LEFT = "left"
RIGHT = "right"
DOUBLY = "doubly"

# Wielandt primitivity bound: a primitive N x N matrix has a strictly
# positive power no later than (N-1)^2 + 1.
def _regularity_power_cap(n: int) -> int:
    return (n - 1) ** 2 + 1


@dataclass(frozen=True)
class CombinationMatrix:
    """Validated combination matrix tagged with its stochasticity kind.

    ``supported_on`` optionally binds the matrix to a topology; entry
    ``(l, k)`` may then be nonzero only for ``l`` in N_k.
    """

    entries: np.ndarray
    kind: str
    tol: float = 1e-12
    supported_on: Topology | None = field(default=None, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValidationError(f"combination matrix must be square, got {entries.shape}")
        if self.kind not in (LEFT, RIGHT, DOUBLY):
            raise ValidationError(f"unknown kind {self.kind!r}")
        kinds = classify_stochastic(entries, self.tol)
        if self.kind not in kinds:
            raise ValidationError(
                f"matrix is not {self.kind}-stochastic within tol={self.tol} "
                f"(classified as {sorted(kinds) or 'none'})"
            )
        if self.supported_on is not None:
            t = self.supported_on
            if t.n != entries.shape[0]:
                raise ValidationError("topology size does not match matrix size")
            off = ~t.adjacency & ~np.eye(t.n, dtype=bool)
            bad = np.argwhere((np.abs(entries) > self.tol) & off)
            if bad.size:
                l, k = bad[0]
                raise ValidationError(
                    f"entry ({l}, {k}) nonzero but node {l} is not a neighbor of {k}"
                )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def neighbor_sum(self) -> NeighborSum:
        """``out[k] = sum_l a_lk values[l]`` over the nonzero entries.

        With ``supported_on`` set, entries outside the neighborhoods (at most
        ``tol`` in size) are dropped, so node k reads only l in N_k.
        """
        entries = self.entries
        if self.supported_on is not None:
            t = self.supported_on
            entries = np.where(t.adjacency | np.eye(t.n, dtype=bool), entries, 0.0)
        return NeighborSum(entries)

    def transpose(self) -> "CombinationMatrix":
        """Transposed matrix with the kind mapped left <-> right."""
        kind = {LEFT: RIGHT, RIGHT: LEFT, DOUBLY: DOUBLY}[self.kind]
        return CombinationMatrix(self.entries.T.copy(), kind, self.tol, self.supported_on)


def identity_combination(n: int, topology: Topology | None = None) -> CombinationMatrix:
    return CombinationMatrix(np.eye(n), DOUBLY, supported_on=topology)


def classify_stochastic(matrix, tol: float) -> set:
    """Every stochasticity kind the matrix satisfies within ``tol``.

    Classification, not validation: returns the empty set when no kind holds.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    x = np.asarray(matrix, dtype=float)
    kinds: set[str] = set()
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return kinds
    if x.min(initial=0.0) < -tol:
        return kinds
    left = np.all(np.abs(x.sum(axis=0) - 1.0) <= tol)
    right = np.all(np.abs(x.sum(axis=1) - 1.0) <= tol)
    if left:
        kinds.add(LEFT)
    if right:
        kinds.add(RIGHT)
    if left and right:
        kinds.add(DOUBLY)
    return kinds


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


def second_eigenvalue_magnitude(a, tol: float = 1e-9) -> float:
    """Second largest eigenvalue magnitude of a doubly stochastic matrix.

    The single eigenvalue at 1 is excluded once; eigenvalues are ordered by
    magnitude.  Governs the geometric rate of consensus averaging.
    """
    x = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    if DOUBLY not in classify_stochastic(x, tol):
        raise PreconditionError("matrix is not doubly stochastic within tol")
    if x.shape[0] == 1:
        return 0.0
    mags = np.sort(np.abs(np.linalg.eigvals(x)))[::-1]
    return float(mags[1])


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


def kron_identity(a, block_size: int) -> np.ndarray:
    """``A (x) I_M`` as a dense array."""
    x = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    return np.kron(x, np.eye(block_size))


def transformed_block_spectral_check(a1, a2, d_blocks, tol: float = 1e-10) -> dict:
    """Verify ``rho(A2^T D A1^T) <= max_k rho(D_k)`` for left-stochastic A1, A2.

    ``D`` is block diagonal with symmetric blocks.  The inequality is a
    theorem; a violation beyond ``tol`` indicates an implementation bug and
    raises ``InternalCheckError`` rather than returning ``holds=False``.
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
        raise InternalCheckError(
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
