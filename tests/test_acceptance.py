"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints one PASS/FAIL line, and
asserts exact (finite-field) equalities; run with `pytest -s` to see the
lines.  The exhaustive corpus used by criteria 2, 7, and 9 is built once per
module.
"""

import itertools
import random

import numpy as np
import pytest

from alglab import (
    NQRTriple,
    check_identity_uniform,
    d_set,
    eigen_grading,
    fixed_subalgebra,
    h_permutation_check,
    hall_bound,
    hall_verify,
    is_r_independent,
    kreknin_shalev_bound,
    make_algebra,
    rigid_subsequence,
    selective_check,
    span,
    validate_nqr,
)
from alglab.formats import load
from alglab.modular import multiplicative_order
from alglab.rewrite import evaluate, normalize_in
from alglab.search import CorpusSpec, search
from alglab.series import series_of_subalgebra
from conftest import FIXTURES, identity_holds_for, leibniz2, random_elements


def report(num, title, ok):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({title}) failed"


# -- shared exhaustive corpus (criteria 2, 7, 9) ------------------------------

def _supports_and_dims(n, max_total):
    yield (), ()
    for size in range(1, max_total + 1):
        for support in itertools.combinations(range(1, n), size):
            for dims in itertools.product(range(1, max_total + 1), repeat=size):
                if sum(dims) <= max_total:
                    yield support, dims


@pytest.fixture(scope="module")
def corpus():
    """All identity-passing graded tables: p = 2, (alpha, beta) = (1, 1),
    zero component trivial, total dim <= 4, for n in {3, 5, 7}."""
    out = {}
    for n in (3, 5, 7):
        survivors = []
        for support, dims in _supports_and_dims(n, 4):
            comp = [0] * n
            for s, d in zip(support, dims):
                comp[s] = d
            res = search(CorpusSpec(p=2, n=n, component_dims=tuple(comp)))
            survivors.extend(res.survivors)
        out[n] = survivors
    return out


# -- criterion 1: identity certification --------------------------------------

def test_acceptance_1_identity_certification():
    cases = [
        ("heisenberg_f5.json", 1, 1),
        ("leibniz2_f3.json", 1, 1),
        ("leibniz2_f7.json", 1, 1),
        ("mat2x2_f2.json", 1, 0),
    ]
    rng = random.Random(0xACC1)
    ok = True
    for name, alpha, beta in cases:
        A = load(FIXTURES / name).algebra
        ok &= (A.alpha, A.beta) == (alpha, beta)
        ok &= check_identity_uniform(A).ok
        for _ in range(1000):
            a, b, c = random_elements(rng, A.p, A.dim, 3)
            ok &= identity_holds_for(A, a, b, c)
    report(1, "identity certification", ok)


# -- criterion 2: derived-length bound over the exhaustive corpus -------------

def test_acceptance_2_kreknin_shalev(corpus):
    violations = []
    checked = 0
    for n, survivors in corpus.items():
        for s in survivors:
            checked += 1
            bound = kreknin_shalev_bound(s.d)
            if s.derived_length is None or s.derived_length > bound:
                violations.append((n, s.index, s.d, s.derived_length))
    ok = not violations and checked > 10_000
    report(2, f"derived length <= 2^d - 1 on {checked} algebras", ok)


# -- criterion 3: dependence-set cardinality bound -----------------------------

def test_acceptance_3_dependence_set_bound():
    # golden regression value first
    golden = d_set(NQRTriple(7, 3, 2), [1])
    ok = sorted(golden.members) == [2, 4, 6] and golden.size == 3

    checked = 0
    for n in range(2, 61):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is None or not validate_nqr(n, q, r).valid:
                continue
            nqr = NQRTriple(n, q, r)
            for k in (1, 2, 3):
                bound = q ** (k + 1)
                if bound >= n - 1:
                    continue  # |D| <= n-1 <= q^(k+1): nothing to scan
                # dependence is invariant under permuting entries, so
                # nondecreasing prefixes cover all of them
                for prefix in itertools.combinations_with_replacement(range(1, n), k):
                    if is_r_independent(nqr, prefix):
                        ds = d_set(nqr, prefix)  # raises if the bound breaks
                        ok &= ds.size <= bound
                        checked += 1
    ok &= checked > 100_000
    report(3, f"|D| <= q^(k+1) on {checked} independent prefixes, n <= 60", ok)


# -- criterion 4: rigid subsequences above the distinct-value threshold --------

def test_acceptance_4_rigid_subsequence():
    nqr = NQRTriple(31, 5, 2)
    assert validate_nqr(31, 5, 2).valid
    rng = random.Random(0xACC4)
    failures = 0
    for _ in range(10_000):
        distinct = rng.randrange(27, 31)  # >= q^m + m = 27 distinct values
        values = rng.sample(range(1, 31), distinct)
        seq = values + [rng.choice(values) for _ in range(rng.randrange(0, 6))]
        got = rigid_subsequence(nqr, seq, 2)
        if got is None or got[0] != seq[0] or not is_r_independent(nqr, got):
            failures += 1
    report(4, "rigid 2-subsequences found in 10000 trials", failures == 0)


# -- criterion 5: Hall-type bound on constructed ideal pairs -------------------

def _semidirect_jordan(p, blocks):
    """Abelian ideal K = F_p^a with a nilpotent Jordan action by one outer
    generator; a genuine Lie algebra for any block shape."""
    a = sum(blocks)
    dim = a + 1
    v = a
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    pos = 0
    for b in blocks:
        for i in range(b - 1):
            T[v, pos + i, pos + i + 1] = 1
            T[pos + i, v, pos + i + 1] = p - 1
        pos += b
    A = make_algebra(p, dim, T, 1, 1)
    K = span([A.basis_vector(i) for i in range(a)], p, dim)
    return A, K


def _heisenberg_with_derivation(p, lam):
    """Heisenberg ideal <e, f, z> extended by v with [v, e] = lam * f."""
    T = np.zeros((4, 4, 4), dtype=np.int64)
    T[0, 1, 2] = 1
    T[1, 0, 2] = p - 1
    T[3, 0, 1] = lam % p
    T[0, 3, 1] = (-lam) % p
    A = make_algebra(p, 4, T, 1, 1)
    K = span([A.basis_vector(i) for i in range(3)], p, 4)
    return A, K


def _strict_upper(p):
    """Strictly upper triangular 3x3 matrices under [x, y] = xy."""
    T = np.zeros((3, 3, 3), dtype=np.int64)
    T[0, 2, 1] = 1  # u12 * u23 = u13
    A = make_algebra(p, 3, T, 1, 0)
    K = span([A.basis_vector(0), A.basis_vector(1)], p, 3)
    return A, K


def _minimal_c(A, K):
    """Least c with g_{c+1}(L) inside [K, K]."""
    from alglab import is_subspace_of, lower_central_series, subspace_product

    KK = subspace_product(A, K, K)
    lcs = lower_central_series(A)
    for c in range(1, len(lcs.terms) + 2):
        idx = min(c, len(lcs.terms) - 1)
        if is_subspace_of(lcs.terms[idx], KK):
            return c
    raise AssertionError("constructed algebra is not nilpotent")


def test_acceptance_5_hall_pairs():
    pairs = []
    for p in (2, 3, 5, 7, 13):
        for blocks in [(1,), (2,), (3,), (2, 1), (2, 2), (3, 1)]:
            pairs.append(_semidirect_jordan(p, blocks))
    for p in (3, 5, 7, 11, 13):
        for lam in (1, 2, 3):
            pairs.append(_heisenberg_with_derivation(p, lam))
    for p in (2, 3, 5, 7, 11):
        pairs.append(_strict_upper(p))
    assert len(pairs) == 50

    ok = True
    for A, K in pairs:
        ok &= check_identity_uniform(A).ok
        c = _minimal_c(A, K)
        k = series_of_subalgebra(A, K, "lcs").length
        ok &= k is not None
        rep = hall_verify(A, K, c, k)
        ok &= rep.hypotheses_ok and bool(rep.conclusion_ok)
        ok &= rep.bound == hall_bound(c, k)
    report(5, "Hall-type conclusion on 50 constructed (L, K) pairs", ok)


# -- criterion 6: eigenspace grading and component permutation ----------------

def test_acceptance_6_reduction():
    A = leibniz2(7)
    egr = eigen_grading(A, np.diag([2, 4]), 3)
    ok = egr.components[1] == span([(1, 0)], 7)
    ok &= egr.components[2] == span([(0, 1)], 7)
    ok &= egr.components[0].is_zero()
    ok &= egr.components[0] == fixed_subalgebra(A, [np.diag([2, 4])])

    loaded = load(FIXTURES / "abelian2_f7_action.json")
    assert loaded.action is not None and loaded.action.triple.r == 2
    rep = h_permutation_check(loaded.algebra, loaded.grading, loaded.action)
    ok &= rep.ok
    report(6, "eigen-grading and h-permutation on the action fixtures", ok)


# -- criterion 7: selective nilpotency forces nilpotency, n-independently -----

def test_acceptance_7_selective_nilpotency(corpus):
    max_class = {}
    ok = True
    for n in (3, 5, 7):
        r = n - 1
        assert validate_nqr(n, 2, r).valid
        nqr = NQRTriple(n, 2, r)
        best = -1
        kept = 0
        for s in corpus[n]:
            if s.d > 2:
                continue
            if not selective_check(s.algebra, s.grading, 1, nqr).ok:
                continue
            kept += 1
            ok &= s.nilpotency_class is not None  # every survivor nilpotent
            best = max(best, s.nilpotency_class)
        max_class[n] = best
        ok &= kept > 0
    ok &= len(set(max_class.values())) == 1  # the bound does not depend on n
    report(7, f"selective survivors nilpotent, per-n maxima {max_class}", ok)


# -- criterion 8: rewrite soundness on random corpus algebras -----------------

def _random_term(rng, max_atoms, max_depth):
    from alglab import Atom, Pair

    counter = [0]

    def build(depth, budget):
        if budget[0] >= max_atoms or depth >= max_depth or rng.random() < 0.3:
            name = f"t{counter[0]}"
            counter[0] += 1
            budget[0] += 1
            return Atom(name, None, counter[0] - 1)
        return Pair(build(depth + 1, budget), build(depth + 1, budget))

    t = build(0, [0])
    if not hasattr(t, "left"):
        counter[0] += 1
        from alglab import Pair as P

        t = P(t, build(1, [0]))
    return t


def test_acceptance_8_rewrite_oracle():
    configs = [
        (2, 3, (0, 1, 1), 1, 1), (3, 3, (0, 1, 1), 1, 1),
        (5, 3, (0, 1, 1), 1, 2), (7, 3, (0, 1, 1), 1, 3),
        (3, 4, (0, 1, 1, 1), 1, 1), (2, 4, (0, 2, 1, 1), 1, 1),
        (5, 4, (0, 1, 2, 0), 1, 0), (3, 5, (0, 1, 0, 1, 1), 2, 1),
        (7, 5, (0, 2, 0, 1, 0), 1, 1), (11, 3, (0, 2, 1), 1, 10),
    ]
    algebras = []
    for p, n, dims, alpha, beta in configs:
        res = search(CorpusSpec(p=p, n=n, component_dims=dims, alpha=alpha,
                                beta=beta, mode="random", seed=0xACC8,
                                samples=40))
        for s in res.survivors:
            if all(not np.array_equal(s.algebra.table, b.table) or s.algebra.p != b.p
                   for b in algebras):
                algebras.append(s.algebra)
            if len(algebras) >= 20:
                break
        if len(algebras) >= 20:
            break
    assert len(algebras) == 20

    rng = random.Random(0xACC8)
    ok = True
    terms = 0
    while terms < 1000:
        A = algebras[terms % 20]
        t = _random_term(rng, 6, 5)
        from alglab.rewrite import atoms_of

        names = {a.name for a in atoms_of(t)}
        assignment = {nm: random_elements(rng, A.p, A.dim, 1)[0] for nm in names}
        direct = evaluate(t, assignment, A)
        flat = evaluate(normalize_in(A, t), assignment, A)
        ok &= direct.tolist() == flat.tolist()
        terms += 1
    report(8, "evaluate(term) == evaluate(normalize(term)) on 1000 terms", ok)


# -- criterion 9: level-0 selective condition characterizes triviality --------

def test_acceptance_9_level0_equivalence(corpus):
    ok = True
    checked = 0
    for n in (3, 5, 7):
        nqr = NQRTriple(n, 2, n - 1)
        for s in corpus[n]:
            passes = selective_check(s.algebra, s.grading, 0, nqr).ok
            trivial_away_from_zero = all(
                s.algebra.dim == 0 or deg == 0 for deg in s.grading.degrees
            )
            ok &= passes == trivial_away_from_zero
            checked += 1
    report(9, f"level-0 equivalence on {checked} corpus algebras", ok)
