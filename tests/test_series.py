import time

import numpy as np
import pytest

from alglab import (
    InputError,
    centralizer,
    derived_length,
    derived_series,
    hall_bound,
    hall_verify,
    ideal_closure,
    is_ideal,
    kreknin_shalev_bound,
    lower_central_series,
    metabelian_class_bound,
    nilpotency_class,
    order_threshold,
    span,
    subspace_product,
)
from alglab.linalg import subspace_sum
from alglab.search import CorpusSpec, search
from alglab.series import _iterate, series_of_subalgebra
from conftest import abelian, heisenberg, zero_algebra


def test_derived_series_zero_algebra():
    assert derived_length(zero_algebra()) == 0


def test_derived_series_heisenberg(heis5):
    res = derived_series(heis5)
    assert [t.rank for t in res.terms] == [3, 1, 0]
    assert res.length == 2
    assert res.terms[1] == span([(0, 0, 1)], 5)


def test_derived_series_matrix_algebra_stabilizes(mat2):
    res = derived_series(mat2)
    assert res.stabilized
    assert res.length is None
    assert res.terms[-1].rank == 4  # [L,L] = L
    assert derived_length(mat2) is None


def test_lower_central_series_basic():
    assert nilpotency_class(abelian(5, 2)) == 1
    assert nilpotency_class(zero_algebra()) == 0


def test_lower_central_series_heisenberg(heis5):
    res = lower_central_series(heis5)
    assert [t.rank for t in res.terms] == [3, 1, 0]
    assert res.length == 2


def test_lower_central_series_leibniz(lez3):
    res = lower_central_series(lez3)
    assert res.length == 2
    assert res.terms[1] == span([(0, 1)], 3)


# (p, alpha, beta, component dims) of seeded random-mode searches whose
# survivors satisfy the identity with general (alpha, beta)
LCS_SEARCHES = [
    (2, 1, 0, (1, 1, 1)), (2, 1, 1, (1, 1, 1)), (2, 1, 1, (0, 1, 2, 1)),
    (3, 1, 2, (1, 1)), (3, 2, 1, (1, 1)), (3, 2, 2, (0, 1, 1, 1)),
    (5, 1, 3, (1, 1)), (5, 2, 4, (1, 1)), (5, 3, 0, (0, 1, 1, 1)),
]


def _search_survivors():
    for p, alpha, beta, dims in LCS_SEARCHES:
        spec = CorpusSpec(p=p, n=len(dims), component_dims=dims, alpha=alpha, beta=beta,
                          mode="random", seed=11, samples=4000)
        yield from (s.algebra for s in search(spec).survivors)


def lower_central_series_two_sided(A):
    """g_{k+1} = [g_k, L] + [L, g_k]: the oracle for the one-sided form."""
    L = A.full_space()
    return _iterate(L, lambda S: subspace_sum(subspace_product(A, S, L), subspace_product(A, L, S)))


def test_one_sided_equals_two_sided_lcs(heis5, lez3, mat2):
    survivors = list(_search_survivors())
    assert len(survivors) > 1000
    assert any(A.beta not in (0, 1) and nilpotency_class(A) is None for A in survivors)
    for A in (heis5, lez3, mat2, abelian(3, 3), *survivors):
        one = lower_central_series(A)
        two = lower_central_series_two_sided(A)
        assert [t.basis.tolist() for t in one.terms] == [
            t.basis.tolist() for t in two.terms
        ]


def test_derived_length_at_most_class(heis5, lez3):
    for A in (heis5, lez3, abelian(2, 4)):
        dl, nc = derived_length(A), nilpotency_class(A)
        assert dl is not None and nc is not None
        assert dl <= nc


def test_series_stabilize_within_dim_plus_one(heis5, mat2):
    for A in (heis5, mat2):
        for res in (derived_series(A), lower_central_series(A)):
            assert len(res.terms) <= A.dim + 2
            ranks = [t.rank for t in res.terms]
            assert ranks == sorted(ranks, reverse=True)


def test_ideal_closure_whole_algebra(heis5):
    assert ideal_closure(heis5, heis5.full_space()) == heis5.full_space()


def test_ideal_closure_center_is_ideal(heis5):
    Z = span([(0, 0, 1)], 5)
    assert ideal_closure(heis5, Z) == Z
    assert is_ideal(heis5, Z)


def test_ideal_closure_grows(heis5):
    E = span([(1, 0, 0)], 5)
    closed = ideal_closure(heis5, E)
    assert closed == span([(1, 0, 0), (0, 0, 1)], 5)


def test_centralizer_of_zero_is_everything(heis5):
    assert centralizer(heis5, heis5.zero_space()) == heis5.full_space()


def test_centralizer_heisenberg_center(heis5):
    assert centralizer(heis5, heis5.full_space()) == span([(0, 0, 1)], 5)
    assert centralizer(heis5, span([(0, 0, 1)], 5)) == heis5.full_space()


def test_centralizer_of_ideal_is_ideal(heis5, lez3, mat2):
    for A in (heis5, lez3, mat2):
        L = A.full_space()
        derived = subspace_product(A, L, L)
        assert is_ideal(A, ideal_closure(A, derived))
        C = centralizer(A, ideal_closure(A, derived))
        assert is_ideal(A, C)


def test_hall_bound_values():
    assert hall_bound(1, 1) == 1
    assert hall_bound(2, 2) == 5
    with pytest.raises(InputError):
        hall_bound(0, 1)


def test_hall_verify_requires_ideal(heis5):
    with pytest.raises(InputError):
        hall_verify(heis5, span([(1, 0, 0)], 5), 1, 1)


def test_hall_verify_hypothesis_failure_reported(heis5):
    # K = center: [K,K] = 0 but g_2(L) = span{z} != 0, so the containment
    # hypothesis fails; this must NOT count as a violation.
    K = span([(0, 0, 1)], 5)
    rep = hall_verify(heis5, K, 1, 1)
    assert not rep.hypotheses_ok
    assert rep.conclusion_ok is None
    assert any("[K,K]" in f for f in rep.hypothesis_failures)


def test_hall_verify_genuine_instance(heis5):
    # K = L: g_3(L) = 0 <= [K,K], K nilpotent of class 2
    L = heis5.full_space()
    rep = hall_verify(heis5, L, c=2, k=2)
    assert rep.hypotheses_ok and rep.conclusion_ok
    assert rep.bound == 5


def test_series_of_subalgebra(heis5):
    K = span([(1, 0, 0), (0, 0, 1)], 5)  # abelian subalgebra <e, z>
    res = series_of_subalgebra(heis5, K, "lcs")
    assert res.length == 1


@pytest.mark.parametrize("kind", ["lcs", "derived"])
def test_series_of_a_subspace_not_closed_under_the_product_is_refused(kind):
    # in the 2x2 matrices over F_2, [K, K] leaves K = <E11 + E12 + E22, E21>:
    # the lcs terms of this K cycled until the budget refused them
    from alglab.formats import load
    from conftest import FIXTURES

    A = load(FIXTURES / "mat2x2_f2.json").algebra
    K = span([(1, 1, 0, 1), (0, 0, 1, 0)], 2)
    start = time.perf_counter()
    message = r"^K is not a subalgebra: \[K, K\] is not contained in K$"
    with pytest.raises(InputError, match=message):
        series_of_subalgebra(A, K, kind)
    assert time.perf_counter() - start < 0.1


def test_series_of_the_whole_algebra_take_no_closure_product(monkeypatch, heis5):
    import alglab.series

    calls = []
    product = alglab.series.subspace_product
    monkeypatch.setattr(alglab.series, "subspace_product",
                        lambda *args: calls.append(1) or product(*args))
    # ranks 3, 1, 0: two products a series, and one more for a proper K
    for series in (derived_series, lower_central_series):
        calls.clear()
        assert series(heis5).length == 2
        assert len(calls) == 2
    calls.clear()
    assert series_of_subalgebra(heis5, span([(1, 0, 0), (0, 0, 1)], 5), "lcs").length == 1
    assert len(calls) == 2


def test_is_ideal_and_hall_verify_count_their_products(monkeypatch, heis5):
    import alglab.series

    calls = []
    product = alglab.series.subspace_product
    monkeypatch.setattr(alglab.series, "subspace_product",
                        lambda *args: calls.append(1) or product(*args))
    # is_ideal takes [S, L], then [L, S] only while S still holds it
    Z, E = span([(0, 0, 1)], 5), span([(1, 0, 0)], 5)
    for S, ideal, products in ((Z, True, 2), (E, False, 1)):
        calls.clear()
        assert is_ideal(heis5, S) == ideal
        assert len(calls) == products
    # two for is_ideal, two for L's series, two for K's: its closure check and
    # the one step, which is [K, K]
    calls.clear()
    assert not hall_verify(heis5, Z, 1, 1).hypotheses_ok
    assert len(calls) == 6


def test_is_ideal_is_the_fixpoint_of_ideal_closure(heis5, lez3, mat2):
    rng = np.random.default_rng(3)
    for A in (heis5, lez3, mat2, heisenberg(7)):
        for _ in range(40):
            rows = rng.integers(0, A.p, size=(int(rng.integers(A.dim + 1)), A.dim))
            S = span(rows.tolist(), A.p, A.dim)
            assert is_ideal(A, S) == (ideal_closure(A, S) == S)
            assert is_ideal(A, ideal_closure(A, S))


def test_bound_calculators():
    assert kreknin_shalev_bound(1) == 1
    assert kreknin_shalev_bound(2) == 3
    assert metabelian_class_bound(2, 2, 1) == 7
    assert order_threshold(2, 1) == 2
    # grows fast but stays exact
    assert order_threshold(3, 2) == 2**7 * 2**8
    assert kreknin_shalev_bound(3) == 7
    with pytest.raises(InputError):
        metabelian_class_bound(0, 2, 1)


def test_order_threshold_is_arbitrary_precision():
    # q = 5 already needs 2^(2^7 - 1) * c^(2^7): far beyond machine words
    val = order_threshold(5, 3)
    assert val == 2**127 * 3**128
    assert val.bit_length() > 300


def test_ideal_closure_matches_left_normalized_word_span():
    # the two-sided ideal generated by S is spanned by left-normalized words
    # with exactly one factor from S, in position 1 or 2; checked by
    # evaluating such words through the rewrite engine on small algebras
    from itertools import product as iproduct

    from alglab import Atom, LinearCombo, evaluate, ideal_closure, span

    def word_span(A, S):
        vectors = [row for row in S.basis]
        basis_atoms = [(f"x{i}", A.basis_vector(i)) for i in range(A.dim)]
        for length in range(2, A.dim + 2):
            for y_pos in (0, 1):
                for y_row in S.basis:
                    for xs in iproduct(basis_atoms, repeat=length - 1):
                        atoms, assign = [], {}
                        for pos in range(length):
                            if pos == y_pos:
                                atom = Atom("y", None, pos)
                                assign[atom] = y_row
                            else:
                                name, vec = xs[pos if pos < y_pos else pos - 1]
                                atom = Atom(name, None, pos)
                                assign[atom] = vec
                            atoms.append(atom)
                        combo = LinearCombo(A.p, ((tuple(atoms), 1),))
                        vectors.append(evaluate(combo, assign, A))
        return span(vectors, A.p, A.dim)

    cases = [
        (heisenberg(5), span([(1, 0, 0)], 5)),
        (heisenberg(5), span([(0, 0, 1)], 5)),
        (heisenberg(3), span([(0, 1, 0)], 3)),
    ]
    T = np.zeros((2, 2, 2), dtype=np.int64)
    T[0, 0, 1] = 1
    from alglab import make_algebra

    leib = make_algebra(3, 2, T)
    cases.append((leib, span([(1, 0)], 3)))
    cases.append((leib, span([(0, 1)], 3)))
    for A, S in cases:
        assert ideal_closure(A, S) == word_span(A, S)
