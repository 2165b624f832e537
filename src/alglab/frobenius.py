"""Automorphism actions: (n, q, r) validation, eigenspace gradings, and the
permutation of components by the second generator.

Matrices act on column vectors (x -> g @ x).  The compatibility law between
the two generators is the conjugation identity h^{-1} phi h = phi^r, which is
exactly what makes h map the phi-eigenspace of omega^i onto that of
omega^{r*i}.  frobenius_data checks that law once, at load; only eigen_grading
recomputes the n components, for callers that want them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .algebra import Algebra, _identity_steps, _products, subspace_product
from .errors import (
    DiagonalizationError,
    InputError,
    UnsupportedFieldError,
    check_work,
)
from .grading import Grading, _check_dims, check_grading
from .linalg import Subspace
from .modular import divisors, element_of_order, multiplicative_order, order_from_multiple


@dataclass(frozen=True)
class NQRTriple:
    """Kernel order n, complement order q, and twist exponent r of a Frobenius
    group FH: r has order q modulo every divisor d > 1 of n, or InputError."""

    n: int
    q: int
    r: int

    def __post_init__(self):
        res = validate_nqr(self.n, self.q, self.r)
        if not res.valid:
            raise InputError(f"(n={self.n}, q={self.q}, r={self.r}) fails the order condition "
                             f"at divisor {res.witness}")


@dataclass(frozen=True)
class NQRResult:
    valid: bool
    witness: Optional[int]  # a divisor d > 1 of n where the order condition fails


def validate_nqr(n: int, q: int, r: int) -> NQRResult:
    """Check that r has multiplicative order exactly q modulo every divisor
    d > 1 of n.  The divisor d = 1 is vacuous.  On failure the witnessing
    divisor is returned; a triple out of range raises InputError.  The trial
    divisions are charged as they go: up to sqrt(n) to list the divisors,
    then up to sqrt(d) each to factor d and phi(d) for the order mod d."""
    if n < 1 or q < 1:
        raise InputError("n and q must be >= 1")
    if not (1 <= r <= n - 1):
        raise InputError(f"r must satisfy 1 <= r <= n-1, got r={r}, n={n}")
    what = f"the order condition on the divisors of {n}"
    spent = isqrt(n)
    check_work(spent, what)
    for d in divisors(n)[1:]:
        spent += 2 * isqrt(d)
        check_work(spent, what)
        if multiplicative_order(r, d) != q:
            return NQRResult(False, d)
    return NQRResult(True, None)


@dataclass(frozen=True)
class AutomorphismFailure:
    pair: tuple[int, int]
    image_of_product: tuple[int, ...]
    product_of_images: tuple[int, ...]


@dataclass(frozen=True)
class AutomorphismReport:
    ok: bool
    invertible: bool
    failures: tuple[AutomorphismFailure, ...]


def check_automorphism(A: Algebra, g) -> AutomorphismReport:
    """Verify g is invertible and multiplicative on all basis pairs.

    Bilinearity extends the basis-pair certificate to all elements.  The two
    d^4 contractions are charged first, at the identity's rate.
    """
    g = linalg.as_mat(g, A.p)
    if g.shape != (A.dim, A.dim):
        raise InputError(f"matrix has shape {g.shape}, expected {(A.dim, A.dim)}")
    check_work(_identity_steps(1, 2, A.dim), f"the automorphism check on a table of dim {A.dim:,}")
    try:
        linalg.mat_inv(g, A.p)
        invertible = True
    except InputError:
        invertible = False
    d = A.dim
    img = linalg.matmul(A.table.reshape(d * d, d), g.T, A.p).reshape(d, d, d)
    prod = _products(A.table, g.T, g.T, A.p)  # [g b_i, g b_j]
    failures = tuple(
        AutomorphismFailure((i, j), tuple(img[i, j].tolist()), tuple(prod[i, j].tolist()))
        for i, j in np.argwhere((img != prod).any(axis=-1)).tolist()
    )
    return AutomorphismReport(invertible and not failures, invertible, failures)


def _order_dividing(g: np.ndarray, p: int, n: int) -> Optional[int]:
    """The order of g if it divides n, else None: one mat_pow per test, through
    the order_from_multiple that multiplicative_order runs on scalars."""
    def is_one(e: int) -> bool:
        return np.array_equal(linalg.mat_pow(g, e, p), np.eye(len(g), dtype=np.int64))
    return order_from_multiple(n, is_one) if is_one(n) else None


def _component_steps(n: int, dim: int) -> int:
    """Budget steps of n nullspaces or subspace images in dimension dim: about
    30 µs a call plus 5 µs per matrix entry, measured for dim 1 to 32."""
    return n * (32 + 5 * dim**2)


def fixed_subalgebra(A: Algebra, gens: Sequence) -> Subspace:
    """Common fixed points of the given automorphisms; verified multiplicatively
    closed.  Raises on inputs that are not automorphisms."""
    space = A.full_space()
    for g in gens:
        rep = check_automorphism(A, g)
        if not rep.ok:
            raise InputError("fixed_subalgebra requires automorphisms")
        g = linalg.as_mat(g, A.p)
        eye = np.eye(A.dim, dtype=np.int64)
        space = linalg.intersect(space, linalg.nullspace((g - eye) % A.p, A.p))
    if not linalg.is_subspace_of(subspace_product(A, space, space), space):
        raise InputError("fixed points are not closed under the product")
    return space


@dataclass(frozen=True)
class FrobeniusData:
    """An action package as frobenius_data validates it.  verify's frobenius
    check relies on it coming from there: it reads the eigen-grading off the
    checks made at load and computes only omega and ker(phi - 1)."""

    triple: NQRTriple
    phi: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.phi.setflags(write=False)
        self.h.setflags(write=False)


def frobenius_data(A: Algebra, n: int, q: int, r: int, phi, h) -> FrobeniusData:
    """Validate the full action package and freeze it.

    Checks: condition on (n, q, r); phi and h are automorphisms of exact
    orders n and q; the conjugation law h^{-1} phi h = phi^r; the field
    supports an order-n root of unity (n | p-1, which also forces p to not
    divide n).
    """
    triple = NQRTriple(n, q, r)
    if (A.p - 1) % n != 0:
        raise UnsupportedFieldError(f"n={n} does not divide p-1={A.p - 1}")
    phi = linalg.as_mat(phi, A.p)
    h = linalg.as_mat(h, A.p)
    for name, g, order in (("phi", phi, n), ("h", h, q)):
        rep = check_automorphism(A, g)
        if not rep.ok:
            raise InputError(f"{name} is not an automorphism")
        got = _order_dividing(g, A.p, order)
        if got != order:
            raise InputError(f"{name} must have order exactly {order}, got "
                             + (f"{got}" if got else f"an order that does not divide {order}"))
    lhs = linalg.matmul(linalg.matmul(linalg.mat_inv(h, A.p), phi, A.p), h, A.p)
    rhs = linalg.mat_pow(phi, r, A.p)
    if not np.array_equal(lhs, rhs):
        raise InputError("conjugation law h^-1 phi h = phi^r fails")
    return FrobeniusData(triple, phi.copy(), h.copy())


@dataclass(frozen=True)
class EigenGradingResult:
    algebra: Algebra            # rebased into the adapted basis
    grading: Grading
    change_of_basis: np.ndarray  # rows = adapted basis vectors in old coordinates
    omega: int
    components: tuple[Subspace, ...]  # eigenspaces in the ORIGINAL coordinates


def eigen_grading(A: Algebra, phi, n: int) -> EigenGradingResult:
    """Split L into eigenspaces L_i = ker(phi - omega^i I) and regrade.

    omega is the smallest residue of exact multiplicative order n in F_p.
    Raises UnsupportedFieldError when no such root exists (n does not divide
    p-1) and DiagonalizationError when the eigenspaces do not fill the space.
    The result carries the rebased algebra, the induced grading, and the
    basis-change matrix (rows = new basis in old coordinates).
    """
    phi = linalg.as_mat(phi, A.p)
    if phi.shape != (A.dim, A.dim):
        raise InputError(f"matrix has shape {phi.shape}, expected {(A.dim, A.dim)}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    omega = element_of_order(A.p, n)
    if omega is None:
        raise UnsupportedFieldError(f"F_{A.p} has no element of order {n}")
    if not np.array_equal(linalg.mat_pow(phi, n, A.p), np.eye(A.dim, dtype=np.int64)):
        raise InputError(f"phi^{n} != identity")

    check_work(_component_steps(n, A.dim), f"splitting L by {n:,} eigenvalues")
    eye = np.eye(A.dim, dtype=np.int64)
    comps = []  # comps[0] is the fixed space of phi, as omega^0 = 1
    for i in range(n):
        ev = pow(omega, i, A.p)
        comps.append(linalg.nullspace((phi - ev * eye) % A.p, A.p))
    total = sum(c.rank for c in comps)
    if total != A.dim:
        raise DiagonalizationError(
            f"eigenspaces span rank {total} < dim {A.dim}; phi is not diagonalizable over F_{A.p}"
        )

    C = np.vstack([c.basis for c in comps])  # (0, 0) at dim 0
    degrees = tuple(i for i, c in enumerate(comps) for _ in range(c.rank))

    d = A.dim
    Cinv = linalg.mat_inv(C, A.p) if d else C
    old = _products(A.table, C, C, A.p)  # [c_a, c_b] in old coordinates
    new_table = linalg.matmul(old.reshape(d * d, d), Cinv, A.p).reshape(d, d, d)
    rebased = Algebra(A.p, A.dim, new_table, A.alpha, A.beta)
    G = Grading(n, degrees)
    rep = check_grading(rebased, G)
    if not rep.ok:
        raise DiagonalizationError(
            "eigenspace decomposition violates the grading law; "
            "phi is not an automorphism of this algebra"
        )
    return EigenGradingResult(rebased, G, C, omega, tuple(comps))


@dataclass(frozen=True)
class PermutationFailure:
    source: int
    expected_target: int


@dataclass(frozen=True)
class PermutationReport:
    ok: bool
    checked: int
    failures: tuple[PermutationFailure, ...]


def h_permutation_check(A: Algebra, G: Grading, fd: FrobeniusData) -> PermutationReport:
    """Verify h maps each component L_i onto L_{r*i mod n}, reading the
    degree vector alone.

    A and G live in the same basis as fd's matrices, and fd comes from
    frobenius_data, so h is invertible; NQRTriple guarantees gcd(r, n) = 1.
    Column j of h is the image of b_j, which must lie in L_{r*deg(j)}; an
    entry h[k, j] != 0 with deg(k) != r*deg(j) is stray and fails deg(j).
    If h maps every L_i into L_{r*i}, injectivity gives dim L_i <= dim
    L_{r*i}, so it maps L_i onto L_{r*i} exactly when the two counts of basis
    vectors are equal; that also catches an i with L_i = 0 but L_{r*i} != 0.
    Such an i occurs or is r^-1 times a degree that occurs, so no walk over
    Z/n is needed; checked is still n.
    """
    n, r = fd.triple.n, fd.triple.r
    if G.n != n:
        raise InputError(f"grading modulus {G.n} != action modulus {n}")
    _check_dims(A, G)
    r_inv = pow(r, -1, n)
    deg = np.asarray(G.degrees, dtype=np.int64)
    stray = (fd.h != 0) & (deg[:, None] != r * deg[None, :] % n)
    count = Counter(G.degrees)
    sources = set(deg[stray.any(axis=0)].tolist())
    sources.update(i for j in count for i in (j, r_inv * j % n)
                   if count[i] != count[r * i % n])
    failures = tuple(PermutationFailure(i, r * i % n) for i in sorted(sources))
    return PermutationReport(not failures, n, failures)
