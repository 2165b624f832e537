"""Exact linear algebra over a prime field F_p.

Everything is integer numpy arrays with entries reduced to {0, ..., p-1};
no floats anywhere.  Subspaces are stored as reduced row-echelon bases, which
makes the representation canonical: two equal subspaces have bit-identical
basis matrices, so equality is an array comparison and fixpoint loops can
stop on exact repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import InputError
from .modular import check_prime


def as_vec(v, p: int, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-d int64 coordinate vector mod p."""
    a = np.asarray(v, dtype=np.int64) % p
    if a.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise InputError(f"vector has length {a.shape[0]}, expected {dim}")
    return a


def as_mat(m, p: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64) % p
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array of shape {a.shape}")
    return a


def inv_scalar(a: int, p: int) -> int:
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


_LIMB_BLOCK = 1 << 15  # inner positions a limb product sums: below 2^15 * 2^16 * 2^31 = 2^62


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p in int64 for every p < 2^31, broadcast as numpy's @,
    on entries reduced into [0, p).  One product is exact when inner*(p-1)^2
    < 2^63.  Otherwise A splits into 16-bit limbs, A = hi*2^16 + lo, and A @ B
    is ((hi @ B mod p)*2^16 + lo @ B) mod p, summed mod p over inner blocks."""
    inner = A.shape[-1]
    if inner * (p - 1) ** 2 < 2**63:
        return (A @ B) % p
    out = 0
    for s in range(0, inner, _LIMB_BLOCK):
        block = slice(s, s + _LIMB_BLOCK)
        a, b = A[..., block], B[block] if B.ndim == 1 else B[..., block, :]
        out = (out + ((a >> 16) @ b % p << 16) + (a & 0xFFFF) @ b) % p
    return out


def mat_pow(A: np.ndarray, k: int, p: int) -> np.ndarray:
    n = A.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = A % p
    while k > 0:
        if k & 1:
            out = matmul(out, base, p)
        base = matmul(base, base, p)
        k >>= 1
    return out


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.  Returns (R, pivot_columns).
    One numpy step per column, _rref_stack's without the batch axis: the pivot
    is swapped into row r and scaled to 1, and one outer-product update clears
    column c elsewhere; products stay below (p-1)^2 < 2^62, exact in int64."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if not nz.size:
            continue
        s = r + nz[0]
        top = A[s] * inv_scalar(A[s, c], p) % p
        A[s] = A[r]
        A -= A[:, c, None] * top  # row r is overwritten with the pivot row
        A %= p
        A[r] = top
        pivots.append(c)
    return A, pivots


def _inv_stack(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise (the inverse of each nonzero x), by repeated
    squaring; products stay below (p-1)^2 < 2^63."""
    out = np.ones_like(x)
    base, e = x, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _rref_stack(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of a (B, rows, cols) stack at once: returns (R,
    ranks) with R[b] equal to rref(M[b], p)[0] (pivot rows first, then zero
    rows).  One numpy step per column eliminates it across the whole batch,
    exact in int64 for p < 2^31.  B = 1 goes to rref, the same step without
    the batch bookkeeping: this path was 2.7x slower there on one certify
    pass's 459 matrices, and a loop of rref 5.4x slower than it on one corpus
    pass's 697 stacks."""
    A = np.asarray(M, dtype=np.int64) % p
    B, rows, cols = A.shape
    if B == 1:
        R, pivots = rref(A[0], p)
        return R[None], np.array([len(pivots)])
    ranks = np.zeros(B, dtype=np.int64)
    below = np.arange(rows)
    for c in range(cols):
        cand = (A[:, :, c] != 0) & (below >= ranks[:, None])
        b = np.flatnonzero(cand.any(axis=1))
        if not b.size:
            continue
        whole = b.size == B  # every matrix has a pivot here: work on A in place
        sub = A if whole else A[b]
        k, r, s = np.arange(b.size), ranks[b], cand[b].argmax(axis=1)
        top = sub[k, s]
        sub[k, s] = sub[k, r]  # swap the first candidate row into place r
        top = top * _inv_stack(top[:, c : c + 1], p) % p
        # clear column c in every row; row r is overwritten with the pivot row
        sub -= sub[:, :, c, None] * top[:, None, :]
        sub %= p
        sub[k, r] = top
        if not whole:
            A[b] = sub
        ranks[b] += 1
        if ranks.min() == rows:
            break
    return A, ranks


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_p^ambient, held as a canonical reduced-echelon basis.

    basis has shape (rank, ambient); rows are basis vectors with strictly
    increasing pivot columns, pivot entries 1 and pivot columns cleared
    elsewhere.  Construct through span()/nullspace(), or directly from a
    basis already in that form.
    """

    p: int
    ambient: int
    basis: np.ndarray = field(compare=False)

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.rank == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, rank={self.rank})"

    def contains(self, v) -> bool:
        return member(self, v)


def zero_subspace(p: int, ambient: int) -> Subspace:
    return Subspace(p, ambient, np.zeros((0, ambient), dtype=np.int64))


def full_subspace(p: int, ambient: int) -> Subspace:
    return Subspace(p, ambient, np.eye(ambient, dtype=np.int64))


def span(vectors, p: int, ambient: int | None = None) -> Subspace:
    """Canonical echelon basis of the linear span of the given vectors.

    ambient is required when the vector list is empty.
    """
    check_prime(p)
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        M = as_mat(vectors, p)  # one block, validated once rather than row by row
    else:
        rows = [as_vec(v, p) for v in vectors]
        lengths = {r.shape[0] for r in rows}
        if len(lengths) > 1:
            raise InputError(f"mixed vector lengths {sorted(lengths)}")
        M = np.stack(rows) if rows else None
    if M is None or M.shape[0] == 0:
        if ambient is None:
            raise InputError("empty span needs an explicit ambient dimension")
        return zero_subspace(p, ambient)
    dim = M.shape[1]
    if ambient is not None and ambient != dim:
        raise InputError(f"vectors have length {dim}, expected ambient {ambient}")
    R, pivots = rref(M, p)
    return Subspace(p, dim, R[: len(pivots)].copy())


def _check_compatible(S: Subspace, T: Subspace):
    if S.p != T.p or S.ambient != T.ambient:
        raise InputError(
            f"incompatible subspaces: F_{S.p}^{S.ambient} vs F_{T.p}^{T.ambient}"
        )


def _inside(X: np.ndarray, T: Subspace) -> bool:
    """True iff every row of X (reduced mod p) lies in T: x is in T iff it is
    x[pivots] @ T.basis, T's echelon rows weighted by x at their pivots."""
    pivots = (T.basis != 0).argmax(axis=1) if T.ambient else []
    return bool(np.array_equal(matmul(X[..., pivots], T.basis, T.p), X))


def member(S: Subspace, v) -> bool:
    """True iff v lies in S."""
    return _inside(as_vec(v, S.p, S.ambient), S)


def subspace_sum(S: Subspace, T: Subspace) -> Subspace:
    _check_compatible(S, T)
    if S.is_zero():
        return T
    if T.is_zero():
        return S
    return span(np.vstack([S.basis, T.basis]), S.p)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """Intersection via the nullspace of the stacked-basis relation matrix."""
    _check_compatible(S, T)
    if S.is_zero() or T.is_zero():
        return zero_subspace(S.p, S.ambient)
    # columns: coefficients (a | b) with a*S.basis = b*T.basis
    A = np.hstack([S.basis.T, (-T.basis.T) % S.p])
    rel = nullspace(A, S.p)
    if rel.is_zero():
        return zero_subspace(S.p, S.ambient)
    coeffs = rel.basis[:, : S.rank]
    return span(matmul(coeffs, S.basis, S.p), S.p, S.ambient)


def is_subspace_of(S: Subspace, T: Subspace) -> bool:
    _check_compatible(S, T)
    return _inside(S.basis, T)


def nullspace(A: np.ndarray, p: int) -> Subspace:
    """Right nullspace {x : A x = 0} as a canonical Subspace of F_p^ncols."""
    A = as_mat(A, p)
    m, n = A.shape
    if n == 0:
        return zero_subspace(p, 0)
    R, pivots = rref(A, p)
    piv_set = set(pivots)
    free = [j for j in range(n) if j not in piv_set]
    if not free:
        return zero_subspace(p, n)
    vecs = np.zeros((len(free), n), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, pivots] = (-R[: len(pivots), free].T) % p
    return span(vecs, p, n)


class LinearSolution(NamedTuple):
    x: np.ndarray
    nullspace: Subspace


def solve(A: np.ndarray, b, p: int) -> Optional[LinearSolution]:
    """One solution of A x = b plus the solution space direction, or None.

    The particular solution sets all free variables to zero.
    """
    check_prime(p)
    A = as_mat(A, p)
    m, n = A.shape
    bb = as_vec(b, p, m)
    aug = np.hstack([A, bb.reshape(-1, 1)])
    R, pivots = rref(aug, p)
    if n in pivots:
        return None  # a pivot in the constants column: inconsistent
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = R[: len(pivots), n]
    return LinearSolution(x, nullspace(A, p))


def mat_inv(A: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan inverse over F_p; raises on singular input."""
    A = as_mat(A, p)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    R, pivots = rref(np.hstack([A, np.eye(n, dtype=np.int64)]), p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise InputError("matrix is singular mod p")
    return R[:, n:].copy()
