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
from alglab.frobenius import _order_dividing
from alglab.linalg import matmul, mat_inv, mat_pow
from alglab.modular import multiplicative_order
from conftest import abelian, leibniz2


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
