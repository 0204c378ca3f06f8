"""Combination matrices: validation, stochasticity classification and the
second eigenvalue that sets the consensus rate.

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

from .errors import PreconditionError, ValidationError
from .graph import NeighborSum, Topology

LEFT = "left"
RIGHT = "right"
DOUBLY = "doubly"


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


def kron_identity(a, block_size: int) -> np.ndarray:
    """``A (x) I_M`` as a dense array."""
    x = a.entries if isinstance(a, CombinationMatrix) else np.asarray(a, dtype=float)
    return np.kron(x, np.eye(block_size))
