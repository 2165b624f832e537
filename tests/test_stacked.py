"""Differential tests: the stacked kernels that `search` runs on every
identity survivor of a chunk, against the per-matrix and per-algebra paths.

`_rref_stack` is compared with `rref` and the row-loop `oracle_rref`,
`_subspace_products` with `subspace_product`, `_stacked_lengths` with
`derived_length` and `nilpotency_class`.  `selective_check`, now
`_selective_violations` on a stack of one table, is compared with the
per-tuple loop it replaced, kept below as `oracle_selective_check`.  The
searches run with identity_filter off, so tables that fail the identity
(and the selective condition, and have no series length) are covered too.
The witness picked one entry at a time and the stacked active counts are
compared with the loops of `tests/conftest.py` on seeded graded tables.
"""

import random
from collections import Counter
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

from alglab import (
    Grading,
    HypothesisError,
    InputError,
    check_grading,
    count_active_components,
    derived_length,
    make_algebra,
    nilpotency_class,
    selective_check,
    span,
    subspace_product,
)
from alglab.algebra import _subspace_products
from alglab.errors import check_work
from alglab.formats import load
from alglab.frobenius import NQRTriple, validate_nqr
from alglab.grading import component, nontrivial_components
from alglab.linalg import _rref_stack, rref
from alglab.rdep import (
    SelectiveReport,
    _constants,
    _is_dependent,
    _selective_violations,
    _selective_witness,
)
from alglab.search import CorpusSpec, search
from alglab.series import _stacked_lengths
from conftest import oracle_active_degrees, oracle_rref, oracle_selective_witness

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BIG_P = 2147483647


# -- oracle ----------------------------------------------------------------------

def oracle_selective_check(A, G, c, nqr):
    """selective_check as it was: one dependence test and one chain of
    subspace products per degree tuple, for one algebra."""
    if c < 0:
        raise InputError(f"c must be >= 0, got {c}")
    if G.n != nqr.n:
        raise InputError(f"grading modulus {G.n} != context modulus {nqr.n}")
    if not check_grading(A, G).ok:
        raise InputError("selective_check needs a valid grading")
    if 0 in nontrivial_components(A, G):
        raise HypothesisError("the zero component must vanish")
    degrees = sorted(nontrivial_components(A, G))
    check_work(len(degrees) ** (c + 1) * _constants(nqr.n, nqr.q, nqr.r).work(c + 1),
               f"a selective check of {len(degrees)}^{c + 1} degree tuples at q = {nqr.q}")
    comps = {i: component(A, G, i) for i in degrees}
    checked = independent = 0
    violations = []
    for tup in iproduct(degrees, repeat=c + 1):
        checked += 1
        if _is_dependent(nqr, tup):
            continue
        independent += 1
        acc = comps[tup[0]]
        for d in tup[1:]:
            acc = subspace_product(A, acc, comps[d])
            if acc.is_zero():
                break
        if not acc.is_zero():
            violations.append(oracle_selective_witness(A, comps, tup))
    return SelectiveReport(not violations, c, checked, independent, tuple(violations))


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


# -- stacked rref ----------------------------------------------------------------

def stacks(p, seed):
    """Seeded (B, rows, cols) stacks: full random, rank-deficient (rows
    repeated in combination), all-zero, and the empty shapes."""
    rng = np.random.default_rng(seed)
    out = []
    for B, rows, cols in [(0, 3, 4), (1, 3, 4), (7, 5, 3), (7, 3, 5), (7, 0, 3), (7, 3, 0),
                          (1, 0, 0), (7, 6, 6)]:
        M = rng.integers(0, p, size=(B, rows, cols))
        out.append(M)
        if B and rows > 1 and cols:
            low = M.copy()
            low[:, -1] = (low[:, 0] * rng.integers(0, p) + low[:, 1 % rows]) % p
            low[:, :, 0] = 0  # a column without a pivot
            out.append(low)
            out.append(np.zeros_like(M))
            mixed = M.copy()
            mixed[::2] = 0
            out.append(mixed)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, BIG_P])
@pytest.mark.parametrize("seed", [1, 2])
def test_rref_stack_matches_rref(p, seed):
    for M in stacks(p, seed):
        R, ranks = _rref_stack(M, p)
        assert R.shape == M.shape and ranks.shape == (M.shape[0],)
        for b in range(M.shape[0]):
            want, pivots = rref(M[b], p)
            assert np.array_equal(R[b], want)
            assert int(ranks[b]) == len(pivots)
            assert np.array_equal(want, oracle_rref(M[b], p)[0])


@pytest.mark.parametrize("p", [2, 3, BIG_P])
def test_subspace_products_match_subspace_product(p):
    rng = random.Random(p)
    for d in (0, 1, 3, 4):
        tables = []
        for _ in range(5):
            T = np.zeros((d, d, d), dtype=np.int64)
            for idx in np.ndindex(d, d, d):
                if rng.random() < 0.4:
                    T[idx] = rng.randrange(p)
            tables.append(make_algebra(p, d, T))
        Ms = [span([[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(d + 1))],
                   p, d) for _ in tables]
        Ns = [span([[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(d + 1))],
                   p, d) for _ in tables]

        def padded(S):
            out = np.zeros((d, d), dtype=np.int64)
            out[: S.rank] = S.basis
            return out

        got, ranks = _subspace_products(np.stack([A.table for A in tables]),
                                        np.stack([padded(M) for M in Ms]),
                                        np.stack([padded(N) for N in Ns]), p)
        for b, (A, M, N) in enumerate(zip(tables, Ms, Ns)):
            want = subspace_product(A, M, N)
            assert int(ranks[b]) == want.rank
            assert np.array_equal(got[b], padded(want))


# -- selective check and series on search survivors ------------------------------

# (p, n, component dims, sample count or None for exhaustive), identity filter off
SEARCHES = [
    (2, 3, (0, 1, 1), None),
    (2, 3, (0, 2, 1), None),
    (3, 3, (0, 2, 2), 40),
    (3, 5, (0, 1, 1, 1, 1), 60),
    (5, 7, (0, 1, 0, 1, 0, 1, 0), 40),
    (7, 5, (0, 1, 1, 0, 1), 40),
]


def triples(n):
    return [NQRTriple(n, q, r) for q in range(2, n) for r in range(2, n)
            if validate_nqr(n, q, r).valid]


def survivors(p, n, dims, samples):
    if samples is None:
        spec = CorpusSpec(p=p, n=n, component_dims=dims, identity_filter=False)
    else:
        spec = CorpusSpec(p=p, n=n, component_dims=dims, mode="random", seed=n * 100 + p,
                          samples=samples, identity_filter=False)
    return search(spec).survivors


def levels(dims):
    """c = 0..3 on at most three components; c = 0..2 beyond (4^4 tuples per
    algebra would make the oracle slow)."""
    return (0, 1, 2, 3) if sum(1 for x in dims if x) <= 3 else (0, 1, 2)


@pytest.mark.parametrize("p, n, dims, samples", SEARCHES)
def test_selective_reports_match_the_tuple_loop(p, n, dims, samples):
    found = survivors(p, n, dims, samples)
    tables = np.stack([s.algebra.table for s in found])
    G = found[0].grading
    outcomes = set()
    for nqr in triples(n):
        for c in levels(dims):
            stacked = _selective_violations(tables, p, G.degrees, c, nqr)
            for s, failing in zip(found, stacked[2]):
                want = oracle_selective_check(s.algebra, s.grading, c, nqr)
                assert_same(selective_check(s.algebra, s.grading, c, nqr), want)
                assert stacked[:2] == (want.tuples_checked, want.independent_tuples)
                assert failing == [v.degrees for v in want.violations]
                outcomes.add(want.ok)
    assert outcomes == {True, False}


def test_stacked_series_lengths_match_the_series():
    seen = []
    for p, n, dims, samples in SEARCHES:
        found = survivors(p, n, dims, samples)
        tables = np.stack([s.algebra.table for s in found])
        derived, classes = _stacked_lengths(tables, p)
        assert derived == [derived_length(s.algebra) for s in found]
        assert classes == [nilpotency_class(s.algebra) for s in found]
        assert [(s.derived_length, s.nilpotency_class) for s in found] == list(zip(derived, classes))
        seen += derived + classes
    assert None in seen and {1, 2, 3} <= set(seen)


def test_stacked_series_on_empty_and_zero_dimensional_stacks():
    assert _stacked_lengths(np.zeros((0, 3, 3, 3), dtype=np.int64), 5) == ([], [])
    assert _stacked_lengths(np.zeros((2, 0, 0, 0), dtype=np.int64), 5) == ([0, 0], [0, 0])
    assert _stacked_lengths(np.zeros((2, 2, 2, 2), dtype=np.int64), 5) == ([1, 1], [1, 1])


@pytest.mark.parametrize("name", ["leibniz2_f3.json", "leibniz2_f7.json",
                                  "abelian2_f7_action.json", "heisenberg_f5.json",
                                  "mat2x2_f2.json"])
def test_selective_reports_match_the_tuple_loop_on_fixtures(name):
    loaded = load(FIXTURES / name)
    A, G = loaded.algebra, loaded.grading
    for nqr in triples(G.n) or [NQRTriple(G.n, 1, 1)]:
        for c in (0, 1, 2, 3):
            try:
                want = oracle_selective_check(A, G, c, nqr)
            except HypothesisError as exc:  # L_0 != 0 on the heisenberg and matrix files
                with pytest.raises(HypothesisError, match=str(exc)):
                    selective_check(A, G, c, nqr)
                continue
            assert_same(selective_check(A, G, c, nqr), want)


def test_selective_report_of_the_empty_algebra():
    Z = make_algebra(2, 0, np.zeros((0, 0, 0), dtype=np.int64))
    nqr = NQRTriple(3, 2, 2)
    for c in (0, 1, 2):
        assert_same(selective_check(Z, Grading(3, ()), c, nqr),
                    oracle_selective_check(Z, Grading(3, ()), c, nqr))


# -- the selective witness on seeded graded tables ------------------------------

def graded_algebra(seed):
    """A seeded random graded algebra: p in {2, 3, 5, 7}, n in {3, 5}, 3 to 6
    basis vectors of nonzero degree, and each entry the grading allows
    nonzero with probability 1/2."""
    rng = random.Random(seed)
    p, n, d = (2, 3, 5, 7)[seed % 4], rng.choice((3, 5)), rng.randrange(3, 7)
    degrees = tuple(rng.randrange(1, n) for _ in range(d))
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k in np.ndindex(d, d, d):
        if degrees[k] == (degrees[i] + degrees[j]) % n and rng.random() < 0.5:
            T[i, j, k] = rng.randrange(1, p)
    return make_algebra(p, d, T), Grading(n, degrees)


def test_selective_witness_matches_the_basis_tuple_loop_on_seeded_tables():
    """Every degree tuple of length 1 to 4 with a nonzero component product
    gets the witness of the loop over basis tuples, and every report at
    c = 0..3 is the per-tuple loop's."""
    nonzero = violations = 0
    for seed in range(90):
        A, G = graded_algebra(seed)
        comps = {i: component(A, G, i) for i in set(G.degrees)}
        level = {(i,): S for i, S in comps.items()}
        for length in (1, 2, 3, 4):
            longer = {}
            for tup, S in sorted(level.items()):
                if S.is_zero():
                    continue
                nonzero += 1
                assert_same(_selective_witness(A, G, tup), oracle_selective_witness(A, comps, tup))
                if length < 4:
                    longer.update({tup + (i,): subspace_product(A, S, N) for i, N in comps.items()})
            level = longer
        for nqr in triples(G.n):
            for c in (0, 1, 2, 3):
                want = oracle_selective_check(A, G, c, nqr)
                assert_same(selective_check(A, G, c, nqr), want)
                violations += len(want.violations)
    assert nonzero >= 1000 and violations >= 500, (nonzero, violations)


def test_active_counts_match_the_chain_loop():
    """count_active_components against one chain of subspace products per
    degree, on the graded fixtures and seeded gradings, at every b (those
    with an empty component too) and c = 0..3; where selective nilpotency
    fails the count is refused."""
    cases = [(loaded.algebra, loaded.grading) for loaded in map(load, sorted(FIXTURES.glob("*.json")))
             if loaded.grading is not None and 0 not in loaded.grading.degrees]
    cases += [graded_algebra(seed) for seed in range(30)]
    seen = Counter()
    for A, G in cases:
        for nqr in triples(G.n):
            for c, b in iproduct((0, 1, 2, 3), range(G.n)):
                try:
                    got = count_active_components(A, G, c, nqr, b)
                except HypothesisError as exc:
                    assert str(exc) == "selective nilpotency fails; the count bound says nothing here"
                    assert not selective_check(A, G, c, nqr).ok
                    seen["refused"] += 1
                    continue
                assert got.active == oracle_active_degrees(A, G, c, b)
                assert got.count == len(got.active)
                seen[c, b in G.degrees, bool(got.active)] += 1
    assert seen["refused"] and all(seen[c, True, True] for c in (0, 1, 2, 3))
    assert all(seen[c, False, c == 0] for c in (0, 1, 2, 3))  # an empty L_b: all active at c = 0, none after
