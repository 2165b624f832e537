import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alglab import (
    InputError,
    full_subspace,
    intersect,
    is_subspace_of,
    member,
    nullspace,
    solve,
    span,
    subspace_sum,
    zero_subspace,
)
from alglab.linalg import mat_inv, mat_pow, matmul, rref
from alglab.modular import is_prime
from conftest import oracle_member, oracle_rref


def brute_force_member(S, v):
    """Oracle: enumerate every coefficient combination of the basis rows."""
    target = np.asarray(v, dtype=np.int64) % S.p
    for coeffs in itertools.product(range(S.p), repeat=S.rank):
        combo = np.zeros(S.ambient, dtype=np.int64)
        for c, row in zip(coeffs, S.basis):
            combo = (combo + c * row) % S.p
        if np.array_equal(combo, target):
            return True
    return False


def test_span_empty_is_zero_subspace():
    S = span([], p=5, ambient=3)
    assert S.rank == 0 and S.ambient == 3


def test_span_dependent_rows_collapse():
    S = span([(1, 2), (2, 4)], p=5)
    assert S.rank == 1
    assert S.basis.tolist() == [[1, 2]]


def test_span_standard_basis():
    S = span([(1, 0), (0, 1)], p=2)
    assert S.rank == 2
    assert S.basis.tolist() == [[1, 0], [0, 1]]


def test_span_rejects_mixed_lengths_and_nonprime():
    with pytest.raises(InputError):
        span([(1, 0), (1, 0, 0)], p=3)
    with pytest.raises(InputError):
        span([(1, 0)], p=6)
    with pytest.raises(InputError):
        span([(1, 0)], p=2**31)
    with pytest.raises(InputError):
        span([(1, 0)], p=True)


def test_span_trial_divides_p_once():
    p = 2147483647  # the largest accepted prime: trial division up to sqrt(p)
    is_prime.cache_clear()
    for _ in range(2):
        span([(1, 2, 3), (4, 5, 6), (7, 8, 10)], p)
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def span_outcome(vectors, p, ambient=None):
    try:
        S = span(vectors, p, ambient)
        return S, S.basis.dtype, S.basis.tolist()
    except InputError as exc:
        return str(exc)


def test_span_of_a_matrix_matches_span_of_its_rows():
    rng = random.Random(0x5BA)
    cases = [(np.zeros((0, 3), dtype=np.int64), None), (np.zeros((0, 3), dtype=np.int64), 3),
             (np.zeros((0, 3), dtype=np.int64), 5), (np.array([[1, 2]]), 3),
             (np.array([[-1, 7, 12]]), None), (np.array([[1.0, 2.0]]), 2)]
    for _ in range(20):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        M = np.array([[rng.randrange(-9, 9) for _ in range(cols)] for _ in range(rows)])
        cases.append((M, rng.choice([None, cols])))
    for M, ambient in cases:
        for p in (2, 5, 7):
            assert span_outcome(M, p, ambient) == span_outcome(list(M), p, ambient)
    assert span_outcome(np.array([[1, 2]]), 5, 3) == "vectors have length 2, expected ambient 3"
    assert span_outcome(np.zeros((0, 3)), 5) == "empty span needs an explicit ambient dimension"


def test_member_scaled_vector():
    S = span([(1, 2)], p=5)
    assert member(S, (3, 6))      # reduces to (3, 1) = 3 * (1, 2)
    assert member(S, (3, 1))


def test_member_zero_vector_always():
    assert member(zero_subspace(5, 2), (0, 0))
    assert member(span([(1, 2)], p=5), (0, 0))


def test_member_independent_coordinate():
    assert not member(span([(1, 0)], p=2), (0, 1))


def test_member_dimension_mismatch():
    with pytest.raises(InputError):
        member(span([(1, 0)], p=2), (1, 0, 0))


def test_member_matches_brute_force_oracle():
    rng = random.Random(20240301)
    for p in (2, 3, 5):
        for _ in range(25):
            dim = rng.randrange(1, 5)
            vecs = [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randrange(0, 4))]
            S = span(vecs, p, ambient=dim)
            if S.rank > 3:
                continue
            probe = [rng.randrange(p) for _ in range(dim)]
            assert member(S, probe) == brute_force_member(S, probe)


def test_sum_with_zero_is_identity():
    S = span([(1, 2, 0)], p=3)
    assert subspace_sum(S, zero_subspace(3, 3)) == S
    assert subspace_sum(zero_subspace(3, 3), S) == S


def test_intersect_complementary_axes():
    S = span([(1, 0)], p=3)
    T = span([(0, 1)], p=3)
    assert intersect(S, T).is_zero()


def test_sum_intersect_dimension_example():
    S = span([(1, 0), (0, 1)], p=2)
    T = span([(1, 1)], p=2)
    assert subspace_sum(S, T).rank == 2
    assert intersect(S, T).rank == 1  # (1,1) already lies in S


def test_incompatible_subspaces_raise():
    with pytest.raises(InputError):
        subspace_sum(span([(1, 0)], p=2), span([(1, 0)], p=3))


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_canonicality_and_dimension_formula(p, data):
    dim = data.draw(st.integers(1, 5))
    nvecs = data.draw(st.integers(0, 5))
    vecs = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim),
            min_size=nvecs,
            max_size=nvecs,
        )
    )
    S = span(vecs, p, ambient=dim)
    # canonical: re-spanning the canonical basis is bit-identical
    assert span(S.basis, p, ambient=dim) == S
    mvecs = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim), max_size=5)
    )
    T = span(mvecs, p, ambient=dim)
    assert S.rank + T.rank == subspace_sum(S, T).rank + intersect(S, T).rank
    # intersection sits inside both
    I = intersect(S, T)
    assert is_subspace_of(I, S) and is_subspace_of(I, T)


def test_solve_identity_system():
    sol = solve(np.eye(3, dtype=np.int64), (1, 2, 4), p=5)
    assert sol is not None
    assert sol.x.tolist() == [1, 2, 4]
    assert sol.nullspace.rank == 0


def test_solve_zero_matrix():
    sol = solve(np.zeros((2, 2), dtype=np.int64), (0, 0), p=3)
    assert sol is not None
    assert sol.x.tolist() == [0, 0]
    assert sol.nullspace == full_subspace(3, 2)


def test_solve_inconsistent_returns_none():
    A = np.array([[1, 1], [2, 2]], dtype=np.int64)
    assert solve(A, (1, 3), p=5) is None


def test_solve_random_systems_check_residual():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7])
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)], dtype=np.int64)
        x_true = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        b = (A @ x_true) % p
        sol = solve(A, b, p)
        assert sol is not None
        assert ((A @ sol.x) % p).tolist() == b.tolist()
        for row in sol.nullspace.basis:
            assert not ((A @ row) % p).any()


def test_rref_pivots_are_canonical():
    R, pivots = rref(np.array([[0, 2, 1], [0, 4, 2], [1, 1, 1]], dtype=np.int64), 5)
    assert pivots == [0, 1]
    # pivot entries are 1 and cleared elsewhere
    for r, c in enumerate(pivots):
        col = R[:, c]
        assert col[r] == 1 and not np.delete(col, r).any()


def test_mat_inv_and_pow():
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    Ainv = mat_inv(A, 5)
    assert matmul(A, Ainv, 5).tolist() == [[1, 0], [0, 1]]
    assert mat_pow(A, 5, 5).tolist() == [[1, 0], [0, 1]]  # unipotent order p
    with pytest.raises(InputError):
        mat_inv(np.array([[1, 1], [2, 2]], dtype=np.int64), 5)


def test_nullspace_of_singular_map():
    N = nullspace(np.array([[1, 1], [2, 2]], dtype=np.int64), 5)
    assert N.rank == 1
    assert member(N, (1, 4))  # (1, -1)


def object_matmul(A, B, p):
    """The exact object-dtype product matmul used past int64: the oracle for
    its limb split."""
    return np.asarray((A.astype(object) @ B.astype(object)) % p, dtype=np.int64)


# (A shape, B shape): plain, stacked, broadcast as in _subspace_products, a 1-d
# operand on either side, and an inner axis past 2^16 (as in rewrite.evaluate)
MATMUL_SHAPES = [
    ((3, 4), (4, 5)),
    ((2, 3, 7), (2, 7, 6)),
    ((2, 3, 7), (1, 7, 12)),
    ((2, 1, 4, 7), (2, 3, 7, 7)),
    ((7,), (3, 7, 2)),
    ((3, 7), (7,)),
    ((2, 70000), (70000, 3)),
]


@pytest.mark.parametrize("p", [2, 5, 2147483647])
def test_matmul_matches_the_object_dtype_product(p):
    rng = np.random.default_rng(p)
    for a_shape, b_shape in MATMUL_SHAPES:
        for A, B in ((rng.integers(0, p, a_shape), rng.integers(0, p, b_shape)),
                     (np.full(a_shape, p - 1), np.full(b_shape, p - 1))):
            got = matmul(A, B, p)
            want = object_matmul(A, B, p)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (p, a_shape, b_shape)


# -- differential tests against the row-loop kernels kept in conftest ---------

ORACLE_PRIMES = [2, 3, 7, 2147483647]


def rref_inputs(p, rng):
    """Seeded matrices of every shape rref meets: empty, all-zero, full-rank,
    tall, wide and rank-deficient, with entries outside [0, p) too."""
    yield from (np.zeros(shape, dtype=np.int64) for shape in [(0, 0), (0, 4), (3, 0), (3, 5)])
    yield np.eye(5, dtype=np.int64) * (p - 1)
    yield np.triu(rng.integers(1, p, (6, 6)))  # full rank: nonzero diagonal
    for rows, cols in [(1, 1), (5, 5), (9, 4), (4, 9), (12, 12)]:
        yield rng.integers(-p, 2 * p, (rows, cols))
        for k in range(1, min(rows, cols)):  # rank at most k
            yield matmul(rng.integers(0, p, (rows, k)), rng.integers(0, p, (k, cols)), p)
    sparse = rng.integers(0, p, (8, 10))
    yield sparse * (rng.random((8, 10)) < 0.2)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rref_matches_the_row_loop_oracle(p):
    rng = np.random.default_rng(p)
    for M in rref_inputs(p, rng):
        before = M.copy()
        R, pivots = rref(M, p)
        want, want_pivots = oracle_rref(M, p)
        assert R.dtype == np.int64 and np.array_equal(R, want), (p, M.shape)
        assert pivots == want_pivots
        assert np.array_equal(M, before)  # the input is not written to


def random_subspaces(p, rng, ambient):
    """Zero, full and random subspaces of F_p^ambient, one nested in another."""
    yield zero_subspace(p, ambient)
    yield full_subspace(p, ambient)
    for k in range(1, ambient + 1):
        S = span(rng.integers(0, p, (k, ambient)), p, ambient)
        yield S
        if S.rank:
            yield span(matmul(rng.integers(0, p, (rng.integers(1, S.rank + 1), S.rank)),
                              S.basis, p), p, ambient)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_member_and_is_subspace_of_match_the_oracle(p):
    rng = np.random.default_rng(p + 1)
    for ambient in (0, 1, 3, 6):
        spaces = list(random_subspaces(p, rng, ambient))
        for T in spaces:
            probes = [rng.integers(0, p, ambient), np.zeros(ambient, dtype=np.int64)]
            if T.rank:  # a vector of T, and one shifted off it when T is not everything
                inside = matmul(rng.integers(0, p, T.rank), T.basis, p)
                probes += [inside, inside - p, (inside + np.eye(ambient, dtype=np.int64)[0]) % p]
            for v in probes:
                assert member(T, v) == oracle_member(T, v), (p, ambient, T.rank, v)
            for S in spaces:
                want = all(oracle_member(T, row) for row in S.basis)
                assert is_subspace_of(S, T) == want, (p, ambient, S.rank, T.rank)
