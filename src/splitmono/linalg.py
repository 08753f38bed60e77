"""Dense linear-algebra kernels shared by every solver module.

Vectors are 1-D ``numpy.float64`` arrays, matrices 2-D.  Spectral
quantities come from LAPACK through ``numpy.linalg``: direct, backward-stable
methods whose accuracy does not depend on the gaps in the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Strict inequalities from convergence conditions are enforced with this
# extra relative margin.  It covers the rounding in the LAPACK constants,
# a few multiples of n * machine epsilon (about 4e-14 at n = 200), so a
# condition that holds only within rounding is rejected.
CONDITION_MARGIN = 1e-12


def strictly_below(lhs: float, rhs: float) -> bool:
    """Verdict on a strict condition ``lhs < rhs``: holds when ``lhs`` stays
    CONDITION_MARGIN * max(1, |rhs|) below ``rhs``.  An infinite ``rhs``
    bounds nothing, and a NaN on either side fails."""
    if rhs == math.inf:
        return lhs < rhs
    return lhs <= rhs - CONDITION_MARGIN * max(1.0, abs(rhs))


def at_most(lhs: float, rhs: float) -> bool:
    """Verdict on a non-strict condition ``lhs <= rhs``, granting the same
    rounding allowance CONDITION_MARGIN * max(1, |rhs|) above ``rhs``."""
    return lhs <= rhs + CONDITION_MARGIN * max(1.0, abs(rhs))

# A matrix applied on every iteration is inverted once and applied as a
# matrix-vector product only up to this condition number.  A stored inverse
# is not backward stable: the residual of ``M^{-1} b`` grows like
# kappa(M) * u * ||M|| ||x|| (u = 2^-53; Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 14), where a backward-stable solve keeps it at
# about u * ||M|| ||x||.  Up to kappa = 1e8 the inverse keeps at least half
# of the digits a solve would; above it every call solves.
MAX_INVERSE_CONDITION = 1e8


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("vector must be 1-D and nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(M) -> np.ndarray:
    """``M`` as a finite, nonempty 2-D float array in C or Fortran order.

    A matrix in neither order (a column-strided view such as ``M[:, ::2]``)
    is copied to C order: on it ``ndarray.dot``, which the hot products
    use, and ``@`` give different bits, while on the two orders they agree."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A if A.flags.forc else np.ascontiguousarray(A)


# Matrices that an iteration multiplies by are stored from a 64-byte
# boundary.  On a 100 x 200 matrix whose data start 16 or 48 bytes past one,
# OpenBLAS's dgemv runs 25-40% slower (on AVX-512, a wide load from such an
# address straddles two cache lines); its results are the same bits at every
# offset.  At 15 x 6 or 10 x 20 the offset made no difference, so a matrix
# under ALIGN_MIN_BYTES is kept as given.
ALIGN_BYTES = 64
ALIGN_MIN_BYTES = 4096


def aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-order float64 array of ``shape`` whose data start
    on an ALIGN_BYTES boundary: a slice of a buffer over-allocated by
    ALIGN_BYTES / 8 entries."""
    size = int(np.prod(shape))
    buf = np.empty(size + ALIGN_BYTES // 8)
    start = (-buf.ctypes.data % ALIGN_BYTES) // 8
    return buf[start:start + size].reshape(shape)


def aligned(M: np.ndarray) -> np.ndarray:
    """The C- or Fortran-ordered float64 matrix ``M`` itself when it is
    under ALIGN_MIN_BYTES or already starts on an ALIGN_BYTES boundary, else
    a copy in the same order that does."""
    if M.nbytes < ALIGN_MIN_BYTES or M.ctypes.data % ALIGN_BYTES == 0:
        return M
    if M.flags.c_contiguous:
        out = aligned_empty(M.shape)
    else:
        out = aligned_empty(M.shape[::-1]).T
    out[...] = M
    return out


@dataclass(frozen=True)
class BlockLayout:
    """Offsets of consecutive blocks inside one concatenated vector."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        off = self.offsets
        if len(off) < 2 or off[0] != 0:
            raise ValueError("offsets must start at 0 and mark at least one block")
        if any(b <= a for a, b in zip(off, off[1:])):
            raise ValueError("offsets must be strictly increasing")

    @classmethod
    def from_dims(cls, dims) -> "BlockLayout":
        offsets = [0]
        for d in dims:
            if d <= 0:
                raise ValueError("block dimensions must be positive")
            offsets.append(offsets[-1] + int(d))
        return cls(tuple(offsets))

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def block(self, x: np.ndarray, i: int) -> np.ndarray:
        return x[self.offsets[i]:self.offsets[i + 1]]

    def concat(self, blocks) -> np.ndarray:
        """The blocks, flattened and joined; each must have its block's
        length, so that no block lands at another's offsets."""
        parts = [np.asarray(b, dtype=float).ravel() for b in blocks]
        off = self.offsets
        if len(parts) != len(off) - 1:
            raise ValueError(f"{len(parts)} blocks given for a layout of {len(off) - 1}")
        for i, part in enumerate(parts):
            if part.size != off[i + 1] - off[i]:
                raise ValueError(f"block {i} has length {part.size}, "
                                 f"its layout block {off[i + 1] - off[i]}")
        return np.concatenate(parts)


def operator_norm(M) -> float:
    """Spectral norm of ``M``: its largest singular value, from LAPACK's SVD."""
    A = as_matrix(M)
    if not np.any(A):
        raise ValueError("operator_norm requires a nonzero matrix")
    return float(np.linalg.norm(A, 2))


def symmetric_min_eig(M) -> float:
    """Smallest eigenvalue of a symmetric matrix, from LAPACK's symmetric
    eigensolver (which reads one triangle, hence the symmetry check)."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    return float(np.linalg.eigvalsh(A)[0])


def split_symmetric_skew(P) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into symmetric part ``(P+P.T)/2`` and skew
    part ``(P-P.T)/2``.

    The returned parts are exactly symmetric / skew.  ``U + S``
    reconstructs ``P`` bitwise whenever the entrywise means ``(P_ij+P_ji)/2``
    are representable (integer or dyadic data); for generic doubles the
    reconstruction is exact to 1 ulp.
    """
    A = as_matrix(P)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    U = (A + A.T) / 2.0
    S = (A - A.T) / 2.0
    return U, S


def spd_inverse(U) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix from its lower
    Cholesky factor L, ``U^{-1} = L^{-T} L^{-1}``; raises ValueError when U
    is not positive definite."""
    A = as_matrix(U)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc
    L_inv = np.linalg.inv(L)
    return L_inv.T @ L_inv


def conditioned_inverse(M: np.ndarray) -> Optional[np.ndarray]:
    """``M^{-1}`` when ``kappa_1(M) = ||M||_1 ||M^{-1}||_1`` is at most
    MAX_INVERSE_CONDITION, else None (also for a singular M): the caller
    then solves against M on every call.  kappa_1 costs O(n^2) once the
    inverse exists."""
    try:
        M_inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None
    kappa = float(np.linalg.norm(M, 1) * np.linalg.norm(M_inv, 1))
    return M_inv if kappa <= MAX_INVERSE_CONDITION else None
