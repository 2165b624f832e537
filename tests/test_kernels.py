"""Differential tests: the table kernels against the per-pair loops they replaced.

Each oracle below is the basis-pair or basis-triple loop that the library
used before its table-level work moved onto `_products` and
`_identity_defects`.  The oracles multiply with exact Python integers, so they
share no arithmetic with the kernels and also cover linalg.matmul's limb
split, taken when d*(p-1)^2 >= 2^63.  The row cascade `_identity_mask` is also
checked against the whole-table `_identity_defects` it replaced in `search`.
Reports are compared by repr as well as by equality, which pins failure order
and the Python int types of every field.
"""

import random
import tracemalloc

import numpy as np
import pytest

from alglab import (
    Grading,
    centralizer,
    check_automorphism,
    check_grading,
    check_identity_uniform,
    eigen_grading,
    make_algebra,
    product,
    span,
    subspace_product,
)
from alglab import algebra, errors, linalg
from alglab import search as search_mod
from alglab.algebra import IdentityFailure, IdentityReport, _identity_defects, _identity_mask
from alglab.frobenius import AutomorphismFailure, AutomorphismReport
from alglab.grading import GradingReport, GradingViolation
from alglab.linalg import mat_inv, nullspace
from alglab.modular import element_of_order

BIG_P = 2147483647  # 2^31 - 1: d*(p-1)^2 >= 2^63 from d = 3 on


# -- oracles -----------------------------------------------------------------

def ref_product(A, x, y):
    """[x, y] by the defining double sum, in Python integers."""
    T = A.table.tolist()
    d = A.dim
    out = [0] * d
    for i in range(d):
        for j in range(d):
            c = int(x[i]) * int(y[j])
            if c:
                for k in range(d):
                    out[k] += c * T[i][j][k]
    return np.asarray([v % A.p for v in out], dtype=np.int64)


def ref_matmul(X, Y, p):
    """X @ Y mod p in Python integers."""
    Y = np.asarray(Y).tolist()
    return np.asarray(
        [[sum(int(a) * int(row[j]) for a, row in zip(x, Y)) % p for j in range(len(Y[0]))]
         for x in np.asarray(X).tolist()],
        dtype=np.int64,
    )


def oracle_identity(A):
    p, d, T = A.p, A.dim, A.table
    failures = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = ref_product(A, T[i, j], A.basis_vector(k))
                rhs = (
                    A.alpha * ref_product(A, A.basis_vector(i), T[j, k])
                    + A.beta * ref_product(A, T[i, k], A.basis_vector(j))
                ) % p
                if not np.array_equal(lhs, rhs):
                    failures.append(
                        IdentityFailure((i, j, k), tuple(lhs.tolist()), tuple(rhs.tolist()))
                    )
    return IdentityReport(not failures, d**3, tuple(failures))


def oracle_identity_defects(tables, p, alpha, beta):
    """The whole-table batched kernel: both sides on every basis triple of a
    (B, d, d, d) stack at once, as one (B, d, d, d, d) contraction."""
    B, d = tables.shape[:2]
    flat = tables.reshape(B, d * d, d)
    lhs = linalg.matmul(flat, tables.reshape(B, d, d * d), p).reshape(B, d, d, d, d)
    rhs = linalg.matmul(flat, tables.transpose(0, 2, 1, 3).reshape(B, d, d * d), p)
    rhs = rhs.reshape(B, d, d, d, d).transpose(0, 3, 1, 2, 4)
    rhs *= alpha
    rhs += beta * lhs.transpose(0, 1, 3, 2, 4)
    rhs %= p
    return (lhs != rhs).any(axis=-1), lhs, rhs


def oracle_identity_mask(tables, p, alpha, beta, charge=None):
    # search passes its running budget total as charge; the oracle charges nothing
    return ~oracle_identity_defects(tables, p, alpha, beta)[0].any(axis=(1, 2, 3))


def oracle_grading(A, G):
    violations = []
    for i in range(A.dim):
        for j in range(A.dim):
            target = (G.degrees[i] + G.degrees[j]) % G.n
            vec = A.table[i, j]
            stray = [k for k in np.flatnonzero(vec).tolist() if G.degrees[k] != target]
            if stray:
                violations.append(GradingViolation((i, j), target, tuple(stray)))
    return GradingReport(not violations, A.dim**2, tuple(violations))


def oracle_automorphism(A, g, invertible):
    g = np.asarray(g, dtype=np.int64) % A.p
    failures = []
    for i in range(A.dim):
        for j in range(A.dim):
            img = ref_matmul(g, A.table[i, j].reshape(-1, 1), A.p)[:, 0]
            prod = ref_product(A, g[:, i], g[:, j])
            if not np.array_equal(img, prod):
                failures.append(
                    AutomorphismFailure((i, j), tuple(img.tolist()), tuple(prod.tolist()))
                )
    return AutomorphismReport(invertible and not failures, invertible, tuple(failures))


def oracle_subspace_product(A, M, N):
    if M.is_zero() or N.is_zero():
        return A.zero_space()
    return span([ref_product(A, m, n) for m in M.basis for n in N.basis], A.p, A.dim)


def oracle_rebase(A, C):
    """Table of A in the basis given by the rows of C."""
    Cinv = mat_inv(C, A.p)
    T = np.zeros_like(A.table)
    for a in range(A.dim):
        for b in range(A.dim):
            T[a, b] = ref_matmul(ref_product(A, C[a], C[b]).reshape(1, -1), Cinv, A.p)[0]
    return T


def oracle_centralizer(A, S):
    if S.is_zero() or A.dim == 0:
        return A.full_space()
    rows = []
    for t in S.basis:
        right = np.stack([ref_product(A, A.basis_vector(i), t) for i in range(A.dim)])
        left = np.stack([ref_product(A, t, A.basis_vector(i)) for i in range(A.dim)])
        rows += [right.T, left.T]
    return nullspace(np.vstack(rows), A.p)


# -- inputs --------------------------------------------------------------------

def random_table(rng, p, d, density=0.5):
    T = np.zeros((d, d, d), dtype=np.int64)
    for idx in np.ndindex(d, d, d):
        if rng.random() < density:
            T[idx] = rng.randrange(p)
    return T


def square_zero_table(rng, p, d):
    """[L, L] inside a subspace that multiplies to zero with everything, so
    both sides of the identity vanish for every alpha and beta."""
    top = rng.randrange(d + 1)
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k in np.ndindex(top, top, d - top):
        T[i, j, top + k] = rng.randrange(p)
    order = list(range(d))
    rng.shuffle(order)
    return T[np.ix_(order, order, order)]


def identity_stack(rng, p, d, count):
    """A seeded (count, d, d, d) stack mixing random tables, passing ones,
    passing ones with one entry changed, and tables whose row 0 is zero, which
    pass every triple (0, j, k) and are decided by the later rows."""
    tables = []
    for _ in range(count):
        kind = rng.randrange(4)
        T = random_table(rng, p, d, density=0.3) if kind in (0, 3) else square_zero_table(rng, p, d)
        if kind == 2 and d:
            idx = tuple(rng.randrange(d) for _ in range(3))
            T[idx] = (T[idx] + 1 + rng.randrange(p - 1)) % p
        if kind == 3 and d:
            T[0] = 0
        tables.append(T)
    return np.asarray(tables, dtype=np.int64).reshape(count, d, d, d)


def graded_table(rng, p, degrees, n):
    d = len(degrees)
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k in np.ndindex(d, d, d):
        if degrees[k] == (degrees[i] + degrees[j]) % n:
            T[i, j, k] = rng.randrange(p)
    return T


def upper_triangular(m, p, commutator=True):
    """Strictly upper-triangular m x m matrices under xy - yx, or under xy."""
    idx = {ij: n for n, ij in enumerate((i, j) for i in range(m) for j in range(i + 1, m))}
    d = len(idx)
    T = np.zeros((d, d, d), dtype=np.int64)
    for (a, b), x in idx.items():
        for (c, e), y in idx.items():
            if b == c:
                T[x, y, idx[(a, e)]] += 1
            if commutator and e == a:
                T[x, y, idx[(c, b)]] -= 1
    return make_algebra(p, d, T, 1, 1 if commutator else 0)


def perturbed(A, rng):
    T = A.table.copy()
    idx = tuple(rng.randrange(A.dim) for _ in range(3))
    T[idx] = (T[idx] + 1 + rng.randrange(A.p - 1)) % A.p
    return make_algebra(A.p, A.dim, T, A.alpha, A.beta)


def random_subspace(rng, A, count):
    vecs = [[rng.randrange(A.p) for _ in range(A.dim)] for _ in range(count)]
    return span(vecs, A.p, A.dim)


def invertible_matrix(rng, p, d):
    while True:
        g = np.asarray([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        if nullspace(g, p).is_zero():
            return g


def identity_cases(p, seed):
    """Random tables (mostly failing), identity-satisfying ones, and perturbations."""
    rng = random.Random(seed)
    out = []
    for d in (1, 2, 3, 4):
        out.append(make_algebra(p, d, random_table(rng, p, d), 1 + rng.randrange(p - 1),
                                rng.randrange(p)))
    lie, assoc = upper_triangular(4, p), upper_triangular(4, p, commutator=False)
    out += [lie, assoc, perturbed(lie, rng), perturbed(assoc, rng)]
    return out


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


# -- identity ------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_identity_matches_triple_loop(p, seed):
    for A in identity_cases(p, seed):
        assert_same(check_identity_uniform(A), oracle_identity(A))


def test_identity_cases_include_passes_and_failures():
    reports = [oracle_identity(A) for A in identity_cases(3, 1)]
    assert any(r.ok for r in reports) and any(not r.ok for r in reports)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_batched_identity_matches_single_tables(p):
    rng = random.Random(p)
    d = 3
    tables = np.stack([random_table(rng, p, d, density=0.15) for _ in range(40)])
    alpha, beta = 1, p - 1
    defects, _, _ = _identity_defects(tables, p, alpha, beta)
    whole = ~defects.reshape(len(tables), -1).any(axis=1)
    want = [oracle_identity(make_algebra(p, d, t, alpha, beta)).ok for t in tables]
    assert _identity_mask(tables, p, alpha, beta).tolist() == want
    assert whole.tolist() == want
    assert any(want) and not all(want)


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
@pytest.mark.parametrize("row_block", [1, algebra._ROW_BLOCK])
def test_identity_mask_matches_the_whole_table_kernel(monkeypatch, p, row_block):
    # a block of one entry sends every nonempty stack through both stages;
    # at the default block these stacks are small enough for a single call
    monkeypatch.setattr(algebra, "_ROW_BLOCK", row_block)
    rng = random.Random(p)
    decided_late = 0
    for d in (0, 1, 2, 3, 4):
        for count in (0, 1, 7, 64):
            tables = identity_stack(rng, p, d, count)
            alpha, beta = 1 + rng.randrange(p - 1), rng.randrange(p)
            defects = oracle_identity_defects(tables, p, alpha, beta)[0]
            want = ~defects.any(axis=(1, 2, 3))
            got = _identity_mask(tables, p, alpha, beta)
            assert got.dtype == bool and got.shape == (count,)
            assert got.tolist() == want.tolist()
            decided_late += int((~defects[:, :1].any(axis=(1, 2, 3)) & ~want).sum())
            if count == 64 and d > 1:
                assert want.any() and not want.all()
            if count <= 7:
                assert got.tolist() == [
                    oracle_identity(make_algebra(p, d, t, alpha, beta)).ok for t in tables]
    # some tables pass row 0 and fail a later row, so at row_block = 1 the
    # second stage decides them
    assert decided_late


@pytest.mark.parametrize("p", [2, 5, BIG_P])
def test_identity_row_ranges_slice_the_whole_table(p):
    rng = random.Random(p)
    tables = identity_stack(rng, p, 4, 7)
    whole = oracle_identity_defects(tables, p, 2 % p or 1, 3 % p)
    for lo, hi in ((0, 1), (1, 4), (0, 4), (2, 3), (3, 4)):
        part = _identity_defects(tables, p, 2 % p or 1, 3 % p, lo, hi)
        for got, want in zip(part, whole):
            assert got.tolist() == want[:, lo:hi].tolist()


@pytest.mark.parametrize("p", [3, 5, BIG_P])
def test_identity_row_blocks_match_the_triple_loop(monkeypatch, p):
    # 64 entries hold two rows at d = 3 and one at d = 4, so every table splits
    monkeypatch.setattr(algebra, "_ROW_BLOCK", 64)
    rng = random.Random(p + 1)
    cases = identity_cases(p, p) if p < BIG_P else [
        make_algebra(p, d, random_table(rng, p, d, density=1.0), 3, 5) for d in (3, 4)]
    for A in cases:
        assert_same(check_identity_uniform(A), oracle_identity(A))
    assert any(not check_identity_uniform(A).ok for A in cases)


def test_identity_witnesses_of_a_table_failing_row_0_include_the_later_blocks(monkeypatch):
    # at d = 4 a block of 64 entries holds one row, so row 0 is stage 1 and each
    # later row its own block: a table dropped after row 0 would lose their witnesses
    monkeypatch.setattr(algebra, "_ROW_BLOCK", 64)
    A = make_algebra(5, 4, random_table(random.Random(4), 5, 4, density=1.0), 2, 3)
    report = check_identity_uniform(A)
    assert_same(report, oracle_identity(A))
    assert {f.triple[0] for f in report.failures} == {0, 1, 2, 3}


def test_identity_mask_past_row_0_stays_in_row_blocks(monkeypatch):
    # one zero table of dim 48 passes row 0; the other 47 rows at once held
    # about 120 MB of intermediates, blocks of one row hold under 1 MB each
    monkeypatch.setattr(errors, "WORK_BUDGET", 10**12)  # charge nothing; blocks keep their size
    tables = np.zeros((1, 48, 48, 48), dtype=np.int64)
    tracemalloc.start()
    try:
        keep = _identity_mask(tables, 5, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.tolist() == [True]
    assert peak < 40_000_000


def search_outputs(result):
    return ([s.index for s in result.survivors],
            [s.algebra.table.tobytes() for s in result.survivors],
            [(s.derived_length, s.nilpotency_class) for s in result.survivors],
            result.summary)


@pytest.mark.parametrize("chunk", [7, 4096])
def test_search_with_the_row_cascade_matches_the_whole_table_mask(monkeypatch, chunk):
    monkeypatch.setattr(search_mod, "CHUNK", chunk)
    specs = [
        search_mod.CorpusSpec(p=2, n=5, component_dims=(0, 1, 1, 1, 1),
                              selective=search_mod.SelectiveFilter(2, 2, 4)),
        search_mod.CorpusSpec(p=2, n=5, component_dims=(0, 1, 0, 2, 1)),
        search_mod.CorpusSpec(p=3, n=3, component_dims=(0, 2, 2), mode="random",
                              seed=11, samples=3000),
        search_mod.CorpusSpec(p=7, n=3, component_dims=(0, 1, 2), alpha=1, beta=2,
                              mode="random", seed=12, samples=3000),
    ]
    got = [search_outputs(search_mod.search(spec)) for spec in specs]
    monkeypatch.setattr(search_mod, "_identity_mask", oracle_identity_mask)
    want = [search_outputs(search_mod.search(spec)) for spec in specs]
    assert got == want
    assert all(indices for indices, *_ in got)


@pytest.mark.parametrize("d", [2, 3])
def test_identity_exact_at_large_p(d):
    rng = random.Random(d)
    A = make_algebra(BIG_P, d, random_table(rng, BIG_P, d, density=1.0), 3, 5)
    rep = check_identity_uniform(A)
    assert not rep.ok
    assert_same(rep, oracle_identity(A))


def test_large_p_straddles_the_overflow_threshold():
    assert 2 * (BIG_P - 1) ** 2 < 2**63 <= 3 * (BIG_P - 1) ** 2


# -- grading -------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grading_matches_pair_loop(p, seed):
    rng = random.Random(seed)
    for d in (1, 3, 5):
        n = rng.randrange(1, 5)
        degrees = tuple(rng.randrange(n) for _ in range(d))
        G = Grading(n, degrees)
        graded = make_algebra(p, d, graded_table(rng, p, degrees, n))
        for A in (graded, perturbed(graded, rng), make_algebra(p, d, random_table(rng, p, d))):
            assert_same(check_grading(A, G), oracle_grading(A, G))


def test_grading_empty_algebra():
    A = make_algebra(2, 0, np.zeros((0, 0, 0)))
    assert_same(check_grading(A, Grading(3, ())), oracle_grading(A, Grading(3, ())))


# -- products of elements and subspaces ------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_product_matches_double_sum(p):
    rng = random.Random(p)
    for d in (0, 1, 2, 3, 4):
        A = make_algebra(p, d, random_table(rng, p, d, density=1.0))
        for _ in range(5):
            x = [rng.randrange(p) for _ in range(d)]
            y = [rng.randrange(p) for _ in range(d)]
            assert product(A, x, y).tolist() == ref_product(A, x, y).tolist()


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_subspace_product_matches_pair_loop(p):
    rng = random.Random(p)
    for d in (1, 2, 3, 4):
        A = make_algebra(p, d, random_table(rng, p, d, density=0.3))
        for _ in range(4):
            M = random_subspace(rng, A, rng.randrange(0, d + 1))
            N = random_subspace(rng, A, rng.randrange(0, d + 1))
            assert_same(subspace_product(A, M, N), oracle_subspace_product(A, M, N))


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_centralizer_matches_pair_loop(p):
    rng = random.Random(p)
    for d in (1, 2, 3, 4):
        A = make_algebra(p, d, random_table(rng, p, d, density=0.3))
        for _ in range(4):
            S = random_subspace(rng, A, rng.randrange(0, d + 1))
            assert_same(centralizer(A, S), oracle_centralizer(A, S))
    A = upper_triangular(4, 3)
    S = random_subspace(rng, A, 2)
    assert_same(centralizer(A, S), oracle_centralizer(A, S))


# -- automorphisms and the eigen-grading rebase -------------------------------------

def graded_with_action(rng, p, n, omega, degrees):
    """A Z/n-graded table and its diagonal automorphism omega^deg."""
    A = make_algebra(p, len(degrees), graded_table(rng, p, degrees, n))
    phi = np.diag([pow(omega, k, p) for k in degrees]).astype(np.int64)
    return A, phi


@pytest.mark.parametrize("p", [2, 3, 5, BIG_P])
def test_automorphism_matches_pair_loop(p):
    rng = random.Random(p)
    n, omega = (2, p - 1) if p > 2 else (1, 1)
    for d in (1, 2, 3):
        degrees = tuple(rng.randrange(n) for _ in range(d))
        A, phi = graded_with_action(rng, p, n, omega, degrees)
        singular = np.zeros((d, d), dtype=np.int64)
        singular[0, 0] = 1
        for g, invertible in ((phi, True), (invertible_matrix(rng, p, d), True),
                              (singular, d == 1)):
            assert_same(check_automorphism(A, g), oracle_automorphism(A, g, invertible))
    assert check_automorphism(A, phi).ok


@pytest.mark.parametrize("p, n", [(3, 2), (5, 4), (7, 3), (7, 6), (BIG_P, 2)])
def test_eigen_rebase_matches_pair_loop(p, n):
    rng = random.Random(n)
    for d in (1, 2, 3, 4):
        degrees = tuple(rng.randrange(n) for _ in range(d))
        A, phi = graded_with_action(rng, p, n, element_of_order(p, n), degrees)
        # hide the grading behind a random change of basis
        C = invertible_matrix(rng, p, d)
        B = make_algebra(p, d, oracle_rebase(A, C))
        phi_B = ref_matmul(ref_matmul(mat_inv(C, p).T, phi, p), C.T, p)
        egr = eigen_grading(B, phi_B, n)
        assert egr.algebra.table.tolist() == oracle_rebase(B, egr.change_of_basis).tolist()
        assert sorted(egr.grading.degrees) == sorted(degrees)

