"""Z/nZ-gradings with a grading-adapted basis.

A grading assigns each basis vector a degree in Z/nZ; the component L_i is
the span of the degree-i basis vectors, so L is their direct sum by
construction and the only thing to verify is the multiplication law
[L_i, L_j] <= L_{i+j mod n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .algebra import Algebra
from .errors import InputError, check_work
from .linalg import Subspace


@dataclass(frozen=True)
class Grading:
    n: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"grading modulus must be >= 1, got {self.n}")
        if any(d < 0 or d >= self.n for d in self.degrees):
            raise InputError("degrees must be canonical residues in {0,...,n-1}")

    @property
    def dim(self) -> int:
        return len(self.degrees)


def _check_dims(A: Algebra, G: Grading):
    if G.dim != A.dim:
        raise InputError(f"grading labels {G.dim} vectors, algebra has dim {A.dim}")


@dataclass(frozen=True)
class GradingViolation:
    pair: tuple[int, int]
    expected_degree: int
    stray_coords: tuple[int, ...]  # basis indices outside the expected component


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    checked: int
    violations: tuple[GradingViolation, ...]


@lru_cache(maxsize=16)
def _graded_entries(degrees: tuple[int, ...], n: int) -> np.ndarray:
    """The (d, d, d) mask of the table entries [b_i, b_j]_k that the grading
    allows: deg(k) = deg(i) + deg(j) mod n.  Cached per (degrees, n), so it is
    read-only."""
    deg = np.asarray(degrees, dtype=np.int64)
    mask = deg[None, None, :] == (deg[:, None, None] + deg[None, :, None]) % n
    mask.setflags(write=False)
    return mask


def check_grading(A: Algebra, G: Grading) -> GradingReport:
    """Verify [b_i, b_j] lands in the component of degree deg(i)+deg(j) mod n."""
    _check_dims(A, G)
    stray = (A.table != 0) & ~_graded_entries(tuple(G.degrees), G.n)
    violations = tuple(
        GradingViolation((i, j), (G.degrees[i] + G.degrees[j]) % G.n,
                         tuple(np.flatnonzero(stray[i, j]).tolist()))
        for i, j in np.argwhere(stray.any(axis=-1)).tolist()
    )
    return GradingReport(not violations, A.dim**2, violations)


def component(A: Algebra, G: Grading, i: int) -> Subspace:
    """The homogeneous component L_i (span of the degree-i basis vectors):
    the rows of the identity at those vectors, already its echelon basis."""
    _check_dims(A, G)
    degrees = np.asarray(G.degrees, dtype=np.int64)
    return Subspace(A.p, A.dim, np.eye(A.dim, dtype=np.int64)[degrees == i % G.n])


def nontrivial_components(A: Algebra, G: Grading) -> set[int]:
    _check_dims(A, G)
    return set(G.degrees)


def component_count(A: Algebra, G: Grading) -> int:
    """Number d of nonzero homogeneous components."""
    return len(nontrivial_components(A, G))


def is_homogeneous(A: Algebra, G: Grading, H: Subspace) -> tuple[bool, list[Subspace]]:
    """Does H decompose as the direct sum of its slices H ∩ L_i?

    Returns the verdict together with the induced components, indexed 0..n-1,
    a list charged a step an entry before it is built.  Off the degrees that
    occur, every slice is one shared zero subspace.
    """
    _check_dims(A, G)
    if H.p != A.p or H.ambient != A.dim:
        raise InputError("subspace does not live in this algebra")
    check_work(G.n, f"a list of {G.n:,} homogeneous slices")
    occurring = set(G.degrees)
    parts = [linalg.zero_subspace(A.p, A.dim)] * G.n
    for i in occurring:
        parts[i] = linalg.intersect(H, component(A, G, i))
    return sum(parts[i].rank for i in occurring) == H.rank, parts
