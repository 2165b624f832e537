import itertools

import numpy as np
import pytest

from alglab import (
    FrobeniusData,
    Grading,
    InputError,
    NQRTriple,
    UnsupportedFieldError,
    check_automorphism,
    check_grading,
    eigen_grading,
    fixed_subalgebra,
    frobenius_data,
    h_permutation_check,
    make_algebra,
    span,
    validate_nqr,
)
from alglab.formats import load
from alglab.frobenius import _order_dividing
from alglab.linalg import matmul, mat_inv, mat_pow, nullspace
from alglab.modular import element_of_order, multiplicative_order
from conftest import FIXTURES, abelian, leibniz2, oracle_h_permutation_check


def test_validate_nqr_valid_cases():
    assert validate_nqr(7, 3, 2).valid   # 2 has order 3 mod 7
    assert validate_nqr(5, 2, 4).valid   # 4 = -1 mod 5 has order 2
    assert validate_nqr(2, 1, 1).valid   # q = 1 with r = 1 mod 2


def test_validate_nqr_witness_divisor():
    res = validate_nqr(6, 2, 5)
    assert not res.valid
    assert res.witness == 2  # 5 = 1 mod 2 has order 1, not 2


def test_validate_nqr_range_errors():
    with pytest.raises(InputError):
        validate_nqr(7, 3, 0)
    with pytest.raises(InputError):
        validate_nqr(7, 3, 7)


def test_validate_nqr_composite_modulus():
    # r = n-1 has order 2 mod every odd divisor > 1, but n must be odd
    assert validate_nqr(15, 2, 14).valid
    assert not validate_nqr(15, 2, 11).valid  # 11 = 1 mod 5


def test_check_automorphism_identity(lez3):
    rep = check_automorphism(lez3, np.eye(2, dtype=np.int64))
    assert rep.ok


def test_check_automorphism_scaling():
    A = leibniz2(7)
    rep = check_automorphism(A, np.diag([2, 4]))
    assert rep.ok  # [2e1, 2e1] = 4e2 matches g(e2) = 4e2


def test_check_automorphism_swap_fails():
    A = leibniz2(7)
    rep = check_automorphism(A, np.array([[0, 1], [1, 0]]))
    assert not rep.ok
    assert any(f.pair == (0, 0) for f in rep.failures)


def test_check_automorphism_singular_matrix(lez3):
    rep = check_automorphism(lez3, np.zeros((2, 2), dtype=np.int64))
    assert not rep.invertible and not rep.ok


def matrix_order(g, p: int, cap: int = 10_000):
    """Smallest k >= 1 with g^k = I, by explicit powering; None past cap.
    The oracle of _order_dividing."""
    g = np.asarray(g, dtype=np.int64) % p
    eye = np.eye(g.shape[0], dtype=np.int64)
    acc = g
    for k in range(1, cap + 1):
        if np.array_equal(acc, eye):
            return k
        acc = matmul(acc, g, p)
    return None


def test_matrix_order():
    assert matrix_order(np.eye(3, dtype=np.int64), 5) == 1
    assert matrix_order(np.diag([2, 4]), 7) == 3  # 2 has order 3 mod 7
    assert matrix_order(np.array([[0, 1], [1, 0]]), 7) == 2


def test_fixed_subalgebra_identity(lez3):
    assert fixed_subalgebra(lez3, [np.eye(2, dtype=np.int64)]) == lez3.full_space()


def test_fixed_subalgebra_no_fixed_points():
    A = leibniz2(7)
    assert fixed_subalgebra(A, [np.diag([2, 4])]).is_zero()


def test_fixed_subalgebra_swap_diagonal():
    A = abelian(7, 2)
    fixed = fixed_subalgebra(A, [np.array([[0, 1], [1, 0]])])
    assert fixed == span([(1, 1)], 7)


def test_fixed_subalgebra_rejects_non_automorphism():
    A = leibniz2(7)
    with pytest.raises(InputError):
        fixed_subalgebra(A, [np.array([[0, 1], [1, 0]])])


def test_eigen_grading_leibniz_f7():
    A = leibniz2(7)
    egr = eigen_grading(A, np.diag([2, 4]), 3)
    assert egr.omega == 2
    assert egr.components[0].is_zero()
    assert egr.components[1] == span([(1, 0)], 7)
    assert egr.components[2] == span([(0, 1)], 7)
    assert egr.grading.degrees == (1, 2)
    assert check_grading(egr.algebra, egr.grading).ok
    # L_0 equals the fixed space
    assert egr.components[0] == fixed_subalgebra(A, [np.diag([2, 4])])


def test_eigen_grading_identity_trivial():
    A = abelian(7, 2)
    egr = eigen_grading(A, np.eye(2, dtype=np.int64), 1)
    assert egr.omega == 1
    assert egr.components[0] == A.full_space()
    assert egr.grading.degrees == (0, 0)


def test_eigen_grading_single_eigenvalue():
    A = abelian(7, 2)
    egr = eigen_grading(A, np.diag([2, 2]), 3)
    assert egr.components[1] == A.full_space()
    assert egr.components[0].is_zero() and egr.components[2].is_zero()


def test_eigen_grading_unsupported_field():
    A = abelian(5, 2)
    with pytest.raises(UnsupportedFieldError):
        eigen_grading(A, np.eye(2, dtype=np.int64), 3)  # 3 does not divide 4


def test_eigen_grading_rejects_wrong_order():
    A = abelian(7, 2)
    with pytest.raises(InputError):
        eigen_grading(A, np.diag([3, 1]), 3)  # 3 has order 6 mod 7, phi^3 != I


def test_eigen_grading_non_diagonalizable():
    # unipotent [[1,1],[0,1]] over F_2 has order 2 = n, but a single
    # eigenvalue 1 with a one-dimensional eigenspace
    A = abelian(2, 2)
    # n = 2 does not divide p - 1 = 1, so the field gate fires first
    with pytest.raises(UnsupportedFieldError):
        eigen_grading(A, np.array([[1, 1], [0, 1]]), 2)
    # over F_3, phi = [[1,1],[0,1]] has order 3 but n = 3 does not divide 2
    A3 = abelian(3, 2)
    with pytest.raises(UnsupportedFieldError):
        eigen_grading(A3, np.array([[1, 1], [0, 1]]), 3)


def test_eigen_grading_rebased_table_matches():
    # permuted Heisenberg-like: make phi non-diagonal via a basis swap
    from alglab.algebra import product

    A = leibniz2(7)
    # conjugate the algebra by the swap to hide the diagonal
    S = np.array([[0, 1], [1, 0]], dtype=np.int64)
    Sinv = mat_inv(S, 7)
    T = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            T[i, j] = matmul(product(A, S[i], S[j]).reshape(1, -1), Sinv, 7)[0]
    B = make_algebra(7, 2, T, 1, 1)  # [e2,e2] = e1 now
    phi = matmul(matmul(mat_inv(S.T % 7, 7), np.diag([2, 4]), 7), S.T % 7, 7)
    egr = eigen_grading(B, phi, 3)
    assert sorted(egr.grading.degrees) == [1, 2]
    assert check_grading(egr.algebra, egr.grading).ok


def test_frobenius_data_valid_package():
    A = abelian(7, 2)
    fd = frobenius_data(A, 3, 2, 2, np.diag([2, 4]), np.array([[0, 1], [1, 0]]))
    assert fd.triple == NQRTriple(3, 2, 2)
    # conjugation law holds as matrices
    lhs = matmul(matmul(mat_inv(fd.h, 7), fd.phi, 7), fd.h, 7)
    assert np.array_equal(lhs, mat_pow(fd.phi, 2, 7))


def test_frobenius_data_rejects_bad_conjugation():
    A = abelian(7, 2)
    with pytest.raises(InputError):
        frobenius_data(A, 3, 2, 2, np.diag([2, 4]), np.eye(2, dtype=np.int64))


def test_frobenius_data_names_the_order_it_found():
    A = abelian(7, 2)
    h = np.array([[0, 1], [1, 0]])
    # phi = I has order 1, which divides 3; -I has order 2, which does not
    for phi, got in ((np.eye(2, dtype=np.int64), "1"),
                     (np.diag([6, 6]), "an order that does not divide 3")):
        with pytest.raises(InputError, match=f"^phi must have order exactly 3, got {got}$"):
            frobenius_data(A, 3, 2, 2, phi, h)


def test_order_by_prime_factors_matches_successive_powers():
    rng = np.random.default_rng(5)
    for _ in range(40):
        g = rng.integers(0, 7, size=(3, 3))
        want = matrix_order(g, 7, cap=400)  # GL_3(F_7) has elements of order up to 342
        for n in (1, 2, 6, 12, 48, 57, 342):
            expected = want if want and n % want == 0 else None
            assert _order_dividing(g % 7, 7, n) == expected


def test_frobenius_data_rejects_wrong_field():
    A = abelian(5, 2)
    with pytest.raises(UnsupportedFieldError):
        frobenius_data(A, 3, 2, 2, np.diag([2, 4]), np.array([[0, 1], [1, 0]]))


def test_h_permutation_pass_on_swap_fixture():
    A = abelian(7, 2)
    fd = frobenius_data(A, 3, 2, 2, np.diag([2, 4]), np.array([[0, 1], [1, 0]]))
    G = Grading(3, (1, 2))
    rep = h_permutation_check(A, G, fd)
    assert rep.ok


def test_h_permutation_trivial_identity():
    A = abelian(3, 2)
    fd = FrobeniusData(NQRTriple(2, 1, 1), np.diag([2, 2]), np.eye(2, dtype=np.int64))
    G = Grading(2, (1, 1))
    assert h_permutation_check(A, G, fd).ok


def test_h_permutation_failure_when_h_fixes_components():
    A = abelian(7, 2)
    # bypass the factory to build an inconsistent package: h = identity
    fd = FrobeniusData(NQRTriple(3, 2, 2), np.diag([2, 4]), np.eye(2, dtype=np.int64))
    rep = h_permutation_check(A, Grading(3, (1, 2)), fd)
    assert not rep.ok
    assert {f.source for f in rep.failures} == {1, 2}


def test_h_permutation_check_refuses_a_mismatched_grading():
    A = abelian(7, 2)
    fd = FrobeniusData(NQRTriple(3, 2, 2), np.diag([2, 4]), np.eye(2, dtype=np.int64))
    with pytest.raises(InputError, match="^grading modulus 4 != action modulus 3$"):
        h_permutation_check(A, Grading(4, (1, 2)), fd)
    with pytest.raises(InputError, match="^grading labels 1 vectors, algebra has dim 2$"):
        h_permutation_check(A, Grading(3, (1,)), fd)
    # bypass the factory: r = 2 is not a unit mod 4, which validate_nqr rules out
    fd = FrobeniusData(NQRTriple(4, 2, 2), np.diag([2, 4]), np.eye(2, dtype=np.int64))
    with pytest.raises(InputError, match="^r = 2 is not a unit mod n = 4$"):
        h_permutation_check(A, Grading(4, (1, 2)), fd)


# every valid (n, q, r) with n <= 13
PERMUTATION_TRIPLES = tuple(
    (n, q, r) for n in range(2, 14) for r in range(1, n)
    for q in (multiplicative_order(r, n),) if q is not None and validate_nqr(n, q, r).valid
)


def _invertible_h(rng, p, deg, n, r):
    """A random invertible h over F_p: dense, or graded (column j inside
    L_{r*deg(j)}) with up to two stray entries."""
    d = len(deg)
    while True:
        h = rng.integers(0, p, size=(d, d))
        if d and rng.random() < 0.5:
            h *= deg[:, None] == r * deg[None, :] % n
            for _ in range(rng.integers(3)):
                h[rng.integers(d), rng.integers(d)] = rng.integers(p)
        if nullspace(h, p).is_zero():
            return h


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_h_permutation_check_matches_the_subspace_oracle(p):
    # 600 seeded cases a prime, 3,000 in all; phi is not read by the check
    rng = np.random.default_rng(p)
    outcomes = []
    for _ in range(600):
        n, q, r = PERMUTATION_TRIPLES[rng.integers(len(PERMUTATION_TRIPLES))]
        dim = int(rng.integers(6))
        if rng.random() < 0.5:
            degrees = rng.integers(n, size=dim).tolist()
        else:  # whole orbits under i -> r*i, so some h permute the components
            starts = rng.integers(n, size=dim).tolist()
            degrees = [a * pow(r, e, n) % n for a in starts for e in range(q if a else 1)][:dim]
        h = _invertible_h(rng, p, np.asarray(degrees, dtype=np.int64), n, r)
        A, G = abelian(p, dim), Grading(n, tuple(degrees))
        fd = FrobeniusData(NQRTriple(n, q, r), np.eye(dim, dtype=np.int64), h)
        got, want = h_permutation_check(A, G, fd), oracle_h_permutation_check(A, G, fd)
        assert got == want and repr(got) == repr(want), (n, q, r, degrees, h.tolist())
        outcomes.append(got.ok)
    assert 100 < sum(outcomes) < 500


def _ladder_action(p, n, q, r, m, lie):
    """q copies of the strictly upper-triangular m x m matrices over F_p under
    xy (or xy - yx), copy s graded by r^s * (j - i) mod n; phi acts by
    omega^degree and h shifts copy s onto copy s + 1, so h^-1 phi h = phi^r."""
    idx = [(i, j) for i in range(m) for j in range(i + 1, m)]
    db = len(idx)
    dim = q * db
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    for s, ((a, (i, j)), (b, (k, l))) in itertools.product(range(q), itertools.product(
            enumerate(idx), repeat=2)):
        if j == k:
            T[s * db + a, s * db + b, s * db + idx.index((i, l))] += 1
        if lie and l == i:
            T[s * db + a, s * db + b, s * db + idx.index((k, j))] -= 1
    degrees = [pow(r, s, n) * (j - i) % n for s in range(q) for i, j in idx]
    omega = element_of_order(p, n)
    phi = np.diag([pow(omega, d, p) for d in degrees])
    h = np.roll(np.eye(dim, dtype=np.int64), db, axis=0)
    return make_algebra(p, dim, T % p, 1, 1 if lie else 0), degrees, phi, h


def _relabelled(rng, p, A, degrees, phi, h):
    """An isomorphic copy: new basis vector k is lam_k times old vector perm[k]."""
    perm = rng.permutation(A.dim)
    lam = rng.integers(1, p, size=A.dim)
    inv = np.asarray([pow(int(x), p - 2, p) for x in lam], dtype=np.int64)
    T = A.table[np.ix_(perm, perm, perm)] * lam[:, None, None] * lam[None, :, None] * inv % p
    phi, h = (inv[:, None] * g[np.ix_(perm, perm)] * lam[None, :] % p for g in (phi, h))
    return make_algebra(p, A.dim, T, A.alpha, A.beta), [degrees[k] for k in perm], phi, h


def test_h_permutation_check_matches_the_oracle_on_action_files():
    # the fixture, and the four twisted ladders of the benchmark's certify
    # workload relabelled under three seeds; each also with one degree moved,
    # which h no longer permutes
    loaded = load(FIXTURES / "abelian2_f7_action.json")
    cases = [(loaded.algebra, list(loaded.grading.degrees), loaded.action)]
    for seed, (p, n, q, r, m, lie) in itertools.product(range(3), (
            (7, 3, 2, 2, 3, False), (13, 3, 2, 2, 3, True),
            (11, 5, 2, 4, 4, False), (11, 5, 4, 2, 3, True))):
        A, degrees, phi, h = _relabelled(np.random.default_rng(seed), p,
                                         *_ladder_action(p, n, q, r, m, lie))
        cases.append((A, degrees, frobenius_data(A, n, q, r, phi, h)))
    outcomes = []
    for A, degrees, fd in cases:
        moved = [(degrees[0] + 1) % fd.triple.n] + degrees[1:]
        for G in (Grading(fd.triple.n, tuple(degrees)), Grading(fd.triple.n, tuple(moved))):
            got, want = h_permutation_check(A, G, fd), oracle_h_permutation_check(A, G, fd)
            assert got == want and repr(got) == repr(want)
            outcomes.append(got.ok)
    assert outcomes == [True, False] * len(cases)


def test_single_entries_never_twist_back():
    # for every valid triple with n <= 200, a != r^e * a for 0 < e < q
    for n in range(2, 201):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is None or not validate_nqr(n, q, r).valid:
                continue
            powers = [pow(r, e, n) for e in range(1, q)]
            for a in range(1, n):
                for rp in powers:
                    assert (rp * a - a) % n != 0, (n, q, r, a)


def test_validate_nqr_implies_order_q_mod_n():
    for n in range(2, 80):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is None or not validate_nqr(n, q, r).valid:
                continue
            assert pow(r, q, n) == 1
            for j in range(1, q):
                assert pow(r, j, n) != 1
