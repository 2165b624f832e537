"""Derived and lower central series, ideal closures, centralizers, and the
numeric bounds attached to them.

Series iterate subspace products until the terms hit zero or repeat; finite
dimension guarantees one of the two happens within dim(L)+1 steps.  A series
that stabilizes at a nonzero term has no length metric (the algebra is not
solvable / not nilpotent), which is a legal outcome, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from . import linalg
from .algebra import Algebra, _identity_steps, _products, _subspace_products, subspace_product
from .errors import InputError, check_work
from .linalg import Subspace


@dataclass(frozen=True)
class SeriesResult:
    terms: tuple[Subspace, ...]
    stabilized: bool          # True: ended on a nonzero repeating term
    length: Optional[int]     # derived length / nilpotency class when terms reach zero


def _iterate(first: Subspace, step, charge=lambda steps: None) -> SeriesResult:
    terms = [first]
    while not terms[-1].is_zero():
        charge(len(terms))
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return SeriesResult(tuple(terms), True, None)
        terms.append(nxt)
    return SeriesResult(tuple(terms), False, len(terms) - 1)


def derived_series(A: Algebra) -> SeriesResult:
    """L^(0) = L, L^(i+1) = [L^(i), L^(i)]."""
    return series_of_subalgebra(A, A.full_space(), "derived")


def derived_length(A: Algebra) -> Optional[int]:
    return derived_series(A).length


def lower_central_series(A: Algebra) -> SeriesResult:
    """g_1 = L, g_{k+1} = [g_k, L].

    The one-sided product suffices: [L, g_k] is contained in [g_k, L] modulo
    the rewrite of right-nested brackets, so the series computed this way
    matches the two-sided variant on every algebra satisfying the identity.
    """
    return series_of_subalgebra(A, A.full_space(), "lcs")


def nilpotency_class(A: Algebra) -> Optional[int]:
    return lower_central_series(A).length


def _stacked_lengths(tables: np.ndarray, p: int) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """derived_length and nilpotency_class of every table of a (B, d, d, d)
    stack, with both series of all tables stepped at once.

    A series leaves the stack when its term reaches zero (its length is the
    step count) or repeats its predecessor exactly (no length), comparing
    the canonical echelon bases as derived_series and lower_central_series
    do.  Those stay the per-algebra path: they return the terms.
    """
    B, d = tables.shape[:2]
    eye = np.eye(d, dtype=np.int64)
    lengths: list[Optional[int]] = [None] * (2 * B)  # derived lengths, then classes
    live, S, ranks = np.arange(2 * B), np.broadcast_to(eye, (2 * B, d, d)), np.full(2 * B, d)
    step = 0
    while True:
        done = ranks == 0
        for i in live[done].tolist():
            lengths[i] = step
        live, S, ranks = live[~done], S[~done], ranks[~done]
        if not live.size:
            return lengths[:B], lengths[B:]
        # [S, S] on the derived side, [S, L] on the lower central side
        right = np.where((live < B)[:, None, None], S, eye)
        nxt, ranks = _subspace_products(tables[live % B], S[:, : ranks.max()], right, p)
        moved = ~(nxt == S).all(axis=(1, 2))
        live, S, ranks = live[moved], nxt[moved], ranks[moved]
        step += 1


def series_of_subalgebra(A: Algebra, K: Subspace, kind: str = "lcs") -> SeriesResult:
    """Lower central or derived series of a subalgebra K inside A.  Each step
    is charged before it runs, with the steps before it, at the identity's
    rate: d^4 multiply-adds a step.  A proper K is refused unless [K, K] <= K,
    a product charged as step 1; a K that is not closed could make the terms
    cycle."""
    if kind not in ("lcs", "derived"):
        raise InputError(f"unknown series kind {kind!r}")

    def charge(steps):
        check_work(_identity_steps(1, steps, A.dim),
                   f"the {kind} series to step {steps} in dim {A.dim}")

    if K.rank < A.dim:
        charge(1)
        if not linalg.is_subspace_of(subspace_product(A, K, K), K):
            raise InputError("K is not a subalgebra: [K, K] is not contained in K")
    return _iterate(K, lambda S: subspace_product(A, S, K if kind == "lcs" else S), charge)


def ideal_closure(A: Algebra, S: Subspace) -> Subspace:
    """Least two-sided ideal containing S: fixpoint of I -> I + [I,L] + [L,I]."""
    L = A.full_space()
    I = S
    while True:
        nxt = linalg.subspace_sum(
            I,
            linalg.subspace_sum(subspace_product(A, I, L), subspace_product(A, L, I)),
        )
        if nxt == I:
            return I
        I = nxt


def is_ideal(A: Algebra, S: Subspace) -> bool:
    """[S, L] + [L, S] <= S: one step of ideal_closure, not its fixpoint."""
    L = A.full_space()
    return all(linalg.is_subspace_of(subspace_product(A, X, Y), S) for X, Y in ((S, L), (L, S)))


def centralizer(A: Algebra, T: Subspace) -> Subspace:
    """{x : [x,t] = 0 and [t,x] = 0 for all t in T}.

    Computed as the nullspace of the multiplication maps stacked over a basis
    of T; conditions on basis elements certify all of T by bilinearity.
    """
    if T.p != A.p or T.ambient != A.dim:
        raise InputError("subspace does not live in this algebra")
    if T.is_zero() or A.dim == 0:
        return A.full_space()
    d, r = A.dim, T.rank
    eye = np.eye(d, dtype=np.int64)
    right = _products(A.table, eye, T.basis, A.p)  # right[i, s] = [e_i, t_s]
    left = _products(A.table, T.basis, eye, A.p)   # left[s, i] = [t_s, e_i]
    # per basis vector t_s: the block of x -> [x, t_s], then that of x -> [t_s, x]
    rows = np.stack([right.transpose(1, 2, 0), left.transpose(0, 2, 1)], axis=1)
    return linalg.nullspace(rows.reshape(2 * r * d, d), A.p)


# -- numeric bounds ----------------------------------------------------------

def hall_bound(c: int, k: int) -> int:
    """Nilpotency-class bound c*C(k+1,2) - C(k,2) for the ideal criterion below."""
    if c < 1 or k < 1:
        raise InputError("hall_bound needs c >= 1 and k >= 1")
    return c * comb(k + 1, 2) - comb(k, 2)


@dataclass(frozen=True)
class HallReport:
    bound: int
    hypotheses_ok: bool
    hypothesis_failures: tuple[str, ...]
    conclusion_ok: Optional[bool]  # None when hypotheses fail: nothing is claimed

    @property
    def ok(self) -> bool:
        return self.hypotheses_ok and bool(self.conclusion_ok)


def hall_verify(A: Algebra, K: Subspace, c: int, k: int) -> HallReport:
    """Check: if g_{c+1}(L) <= [K,K] and g_{k+1}(K) = 0 for an ideal K, then
    g_{hall_bound(c,k)+1}(L) = 0.

    Hypothesis failures and conclusion failures are reported separately: a
    falsified hypothesis makes the instance vacuous, not a counterexample.
    """
    if not is_ideal(A, K):
        raise InputError("K must be an ideal (ideal_closure(K) == K)")
    bound = hall_bound(c, k)
    failures = []

    lcs_L = lower_central_series(A)
    lcs_K = series_of_subalgebra(A, K, "lcs")
    g_c1 = _series_term(lcs_L, c + 1)
    KK = _series_term(lcs_K, 2)  # [K, K], also when the series stops at K or at 0
    if not linalg.is_subspace_of(g_c1, KK):
        failures.append(f"g_{c + 1}(L) is not contained in [K,K]")

    g_k1_K = _series_term(lcs_K, k + 1)
    if not g_k1_K.is_zero():
        failures.append(f"g_{k + 1}(K) != 0")

    if failures:
        return HallReport(bound, False, tuple(failures), None)
    conclusion = _series_term(lcs_L, bound + 1).is_zero()
    return HallReport(bound, True, (), conclusion)


def _series_term(series: SeriesResult, index_1based: int) -> Subspace:
    """g_i for i >= 1, extending past the computed terms by stationarity: the
    last term is zero or the stable term, depending on the outcome."""
    return series.terms[min(index_1based, len(series.terms)) - 1]


def kreknin_shalev_bound(d: int) -> int:
    """Derived-length bound 2^d - 1 for a grading with d nonzero components
    and trivial zero component."""
    if d < 0:
        raise InputError(f"d must be >= 0, got {d}")
    return 2**d - 1


def metabelian_class_bound(m: int, q: int, c: int) -> int:
    """Nilpotency-class bound (m-1)*(q^(c+1)+c)+2 for the metabelian case."""
    if m < 1 or q < 1 or c < 0:
        raise InputError("metabelian_class_bound needs m, q >= 1 and c >= 0")
    return (m - 1) * (q ** (c + 1) + c) + 2


def order_threshold(q: int, c: int) -> int:
    """Additive-order threshold 2^(2^(2q-3)-1) * c^(2^(2q-3)).

    Above this order the active-component count bound applies.  Grows
    astronomically (python bigints keep it exact).
    """
    if q < 2 or c < 1:
        raise InputError("order_threshold needs q >= 2 and c >= 1")
    e = 2 ** (2 * q - 3)
    return 2 ** (e - 1) * c**e
