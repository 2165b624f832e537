"""Structure-constant algebras and the two-parameter product identity.

An Algebra is a finite-dimensional F_p-algebra given by its multiplication
table on a fixed basis, together with coefficients (alpha, beta), alpha != 0,
for the identity

    [[a,b],c] = alpha*[a,[b,c]] + beta*[[a,c],b].

Lie algebras satisfy it with (1,1), associative algebras with (1,0), and
(right) Leibniz algebras with (1,1).  Checking it on all basis triples
certifies it for all elements, by trilinearity of both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linalg
from .errors import InputError, check_work
from .linalg import Subspace
from .modular import check_prime


@dataclass(frozen=True)
class Algebra:
    """dim-dimensional algebra over F_p with table[i, j, :] = coords of [b_i, b_j]."""

    p: int
    dim: int
    table: np.ndarray = field(compare=False)
    alpha: int = 1
    beta: int = 1

    def __post_init__(self):
        self.table.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            (self.p, self.dim, self.alpha, self.beta)
            == (other.p, other.dim, other.alpha, other.beta)
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.dim, self.alpha, self.beta, self.table.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Algebra(p={self.p}, dim={self.dim}, "
            f"alpha={self.alpha}, beta={self.beta})"
        )

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[i] = 1
        return e

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def full_space(self) -> Subspace:
        return linalg.full_subspace(self.p, self.dim)

    def zero_space(self) -> Subspace:
        return linalg.zero_subspace(self.p, self.dim)


def make_algebra(p: int, dim: int, table, alpha: int = 1, beta: int = 1) -> Algebra:
    """Validate and build an Algebra.  table is any (dim, dim, dim) array-like."""
    check_prime(p)
    if dim < 0:
        raise InputError(f"dim must be >= 0, got {dim}")
    T = np.asarray(table, dtype=np.int64) % p
    if T.shape != (dim, dim, dim):
        raise InputError(f"table has shape {T.shape}, expected {(dim, dim, dim)}")
    alpha %= p
    beta %= p
    if alpha == 0:
        raise InputError("alpha must be nonzero mod p")
    return Algebra(p, dim, T, alpha, beta)  # T is a new array: % p copies


def _products(T: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """out[a, b, :] = sum_ij X[a,i] Y[b,j] T[i,j,:] mod p, without validation.

    X and Y are stacks of rows or single vectors, reduced mod p; the result
    has shape X.shape[:-1] + Y.shape[:-1] + (d,).  X is contracted first and
    reduced mod p before Y is, both by linalg.matmul, exact in int64 for
    every p < 2^31.
    """
    d = T.shape[0]
    Z = linalg.matmul(X, T.reshape(d, d * d), p).reshape(X.shape[:-1] + (d, d))
    return linalg.matmul(Y, Z, p)


_ROW_BLOCK = 1 << 16  # entries of a row block's intermediate held at once


def _rowwise_products(T: np.ndarray, X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """out[w, :] = [X[w], Y[w]] for two (W, d) stacks reduced mod p: _products
    with each row of Y paired to its row of X.  Rows go in blocks, so the
    (rows, d, d) intermediate stays within _ROW_BLOCK entries."""
    step = max(1, _ROW_BLOCK // max(1, T.shape[0] ** 2))
    return np.concatenate([_products(T, X[i : i + step], Y[i : i + step, None], p)[:, 0]
                           for i in range(0, len(X), step)])


def product(A: Algebra, x, y) -> np.ndarray:
    """Bilinear product of two coordinate vectors."""
    xv = linalg.as_vec(x, A.p, A.dim)
    yv = linalg.as_vec(y, A.p, A.dim)
    return _products(A.table, xv, yv, A.p)


@dataclass(frozen=True)
class IdentityFailure:
    triple: tuple[int, int, int]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    checked: int
    failures: tuple[IdentityFailure, ...]


def _identity_defects(tables: np.ndarray, p: int, alpha: int, beta: int,
                      lo: int = 0, hi: int | None = None):
    """Both sides of the identity on the basis triples (i, j, k) with lo <= i < hi
    (hi defaults to d) of a batch of tables.

    tables has shape (B, d, d, d) with entries reduced mod p.  Returns
    (defects, lhs, rhs), indexed by (b, i - lo, j, k): lhs[b,i,j,k] =
    [[b_i,b_j],b_k], rhs[b,i,j,k] = alpha*[b_i,[b_j,b_k]] + beta*[[b_i,b_k],b_j],
    and defects[b,i,j,k] is True where the two differ.  Contractions are
    exact int64 (linalg.matmul) at every p; the work is proportional to
    hi - lo, d^4 multiply-adds a row.
    """
    B, d = tables.shape[:2]
    hi = d if hi is None else hi
    rows = tables[:, lo:hi]
    r = rows.shape[1]
    # lhs[b,i,j,k,l] = sum_m T[i,j,m] T[m,k,l]
    lhs = linalg.matmul(rows.reshape(B, r * d, d), tables.reshape(B, d, d * d), p)
    lhs = lhs.reshape(B, r, d, d, d)
    # [b_i,[b_j,b_k]]_l = sum_m T[j,k,m] T[i,m,l]: contract m against T[m,i,l]
    rhs = linalg.matmul(tables.reshape(B, d * d, d),
                        rows.transpose(0, 2, 1, 3).reshape(B, d, r * d), p)
    rhs = rhs.reshape(B, d, d, r, d).transpose(0, 3, 1, 2, 4)
    rhs *= alpha
    # [[b_i,b_k],b_j] is lhs with j and k swapped
    rhs += beta * lhs.transpose(0, 1, 3, 2, 4)
    rhs %= p
    return (lhs != rhs).any(axis=-1), lhs, rhs


def _identity_steps(tables: int, rows: int, d: int) -> int:
    """Budget steps of the identity on `rows` basis rows of `tables` tables of
    dim d: d^4 multiply-adds a row, 256 to a step at every p (2-8 ns a
    multiply-add on dense tables, the limb split at p = 2^31 - 1 included)."""
    return tables * rows * d**4 // 256


def _identity_mask(tables: np.ndarray, p: int, alpha: int, beta: int,
                   witnesses: list | None = None, charge=None) -> np.ndarray:
    """True for each table of a (B, d, d, d) stack that satisfies the identity
    on every basis triple.  Row 0 (i = 0) runs on the whole stack first, and
    rows 1..d-1 only on the tables that pass it: random tables almost all
    fail on row 0.  A stack whose rows all fit in _ROW_BLOCK entries runs them
    in one call instead.  Each stage is charged to the work budget before it
    runs and goes in row blocks of at most _ROW_BLOCK entries (or one row),
    dropping failed tables between blocks, unless a witnesses list collects
    (table, IdentityFailure) for every failing triple, in (i, j, k) order.
    A charge callable, if given, gets the number of tables that pass row 0:
    before rows 1..d-1 run on them, or right after the one call that runs
    every row of a small stack."""
    B, d = tables.shape[:2]
    keep = np.ones(B, dtype=bool)
    index, live = np.arange(B), tables
    split = d if B * d**4 <= _ROW_BLOCK else 1
    for lo, hi in ((0, split), (split, d)):
        if lo == hi or not index.size:
            continue
        rows = f"row {lo}" if hi - lo == 1 else f"rows {lo}..{hi - 1}"
        check_work(_identity_steps(index.size, hi - lo, d),
                   f"the identity on {rows} of {index.size} table(s) of dim {d}")
        if lo and charge is not None:
            charge(index.size)
        step = max(1, _ROW_BLOCK // (index.size * d**3))
        for start in range(lo, hi, step):
            defects, lhs, rhs = _identity_defects(live, p, alpha, beta, start,
                                                  min(start + step, hi))
            if split > 1 and charge is not None:
                charge(B - int(defects[:, 0].any(axis=(1, 2)).sum()))
            failed = defects.any(axis=(1, 2, 3))
            keep[index[failed]] = False
            if witnesses is not None:
                for b, i, j, k in np.argwhere(defects).tolist():
                    sides = tuple(lhs[b, i, j, k].tolist()), tuple(rhs[b, i, j, k].tolist())
                    witnesses.append((int(index[b]), IdentityFailure((start + i, j, k), *sides)))
            elif failed.any():
                index, live = index[~failed], live[~failed]
                if not index.size:
                    break
    return keep


def check_identity_uniform(A: Algebra) -> IdentityReport:
    """Certify [[a,b],c] = alpha*[a,[b,c]] + beta*[[a,c],b] on all basis triples.

    Passing on every triple certifies the identity for all elements of the
    algebra (both sides are trilinear).  The report lists each failing triple
    with both evaluated sides, in lexicographic triple order; the work is
    _identity_mask's on a stack of one.
    """
    witnesses: list = []
    _identity_mask(A.table[None], A.p, A.alpha, A.beta, witnesses)
    return IdentityReport(not witnesses, A.dim**3, tuple(w for _, w in witnesses))


def solve_alpha_beta(A: Algebra, a, b, c) -> Optional[tuple[int, int]]:
    """Solve [[a,b],c] = alpha*[a,[b,c]] + beta*[[a,c],b] for one triple.

    Returns the lexicographically first (alpha, beta) with alpha != 0,
    scanning alpha upward from 1 and beta upward from 0 (so (1, 0) wins
    whenever it solves the system, then (1, beta) with smallest beta, ...).
    Returns None when no solution with nonzero alpha exists.
    """
    p = A.p
    u = product(A, product(A, a, b), c)          # target
    v = product(A, a, product(A, b, c))          # alpha column
    w = product(A, product(A, a, c), b)          # beta column
    M = np.stack([v, w], axis=1)
    sol = linalg.solve(M, u, p)
    if sol is None:
        return None
    x0, null = sol.x, sol.nullspace
    if null.rank == 2:
        return (1, 0)
    if null.rank == 0:
        return (int(x0[0]), int(x0[1])) if x0[0] else None
    n = null.basis[0]
    if n[0]:
        # alpha moves along the line; alpha = 1 is reachable, with unique beta
        t = ((1 - x0[0]) * linalg.inv_scalar(int(n[0]), p)) % p
        return (1, int((x0[1] + t * n[1]) % p))
    # alpha is pinned at x0[0]; beta is free (n = (0, 1) in echelon form)
    if x0[0] == 0:
        return None
    return (int(x0[0]), 0)


def subspace_product(A: Algebra, M: Subspace, N: Subspace) -> Subspace:
    """Span of [m, n] over all m in M, n in N (basis pairs suffice, by bilinearity)."""
    if M.p != A.p or N.p != A.p or M.ambient != A.dim or N.ambient != A.dim:
        raise InputError("subspaces do not live in this algebra")
    if M.is_zero() or N.is_zero():
        return A.zero_space()
    prods = _products(A.table, M.basis, N.basis, A.p)
    return linalg.span(prods.reshape(-1, A.dim), A.p, A.dim)


def _subspace_products(tables: np.ndarray, M: np.ndarray, N: np.ndarray,
                       p: int) -> tuple[np.ndarray, np.ndarray]:
    """subspace_product on a stack: tables (B, d, d, d), and M, N stacks of
    (B, rows, d) spanning rows, which may include zero rows; any of the three
    may instead be one (1, ...) shared by the stack.  Returns the (B, d, d)
    echelon bases of [M_b, N_b], padded with zero rows, and their ranks.
    Each table contracts as in _products."""
    d, m, n = tables.shape[1], M.shape[1], N.shape[1]
    Z = linalg.matmul(M, tables.reshape(len(tables), d, d * d), p)
    P = linalg.matmul(N[:, None], Z.reshape(len(Z), m, d, d), p)
    B = len(P)
    R, ranks = linalg._rref_stack(P.reshape(B, m * n, d), p)
    if m * n >= d:
        return R[:, :d], ranks
    out = np.zeros((B, d, d), dtype=np.int64)
    out[:, : m * n] = R
    return out, ranks


def _chain_ranks(table: np.ndarray, X: np.ndarray, bases, p: int) -> np.ndarray:
    """The ranks of [...[[X_s, N_1], N_2]..., N_k] for a (S, rows, d) stack of
    subspaces X_s of one (d, d, d) table, each given by independent rows among
    zero rows, and shared bases N_j (rows_j, d): one _subspace_products per N_j
    on the whole stack, cut to its longest basis, until every product is zero."""
    ranks = np.count_nonzero(X.any(axis=2), axis=1)
    for N in bases:
        if not ranks.any():
            break
        X, ranks = _subspace_products(table[None], X, N[None], p)
        X = X[:, : ranks.max()]
    return ranks
