import random

import numpy as np
import pytest

from alglab import (
    Grading,
    InputError,
    check_grading,
    component,
    component_count,
    derived_series,
    is_homogeneous,
    lower_central_series,
    nontrivial_components,
    intersect,
    span,
)
from conftest import abelian, zero_algebra


def test_grading_validates_residues():
    with pytest.raises(InputError):
        Grading(3, (1, 3))
    with pytest.raises(InputError):
        Grading(0, ())


def test_check_grading_leibniz_pass(lez3):
    assert check_grading(lez3, Grading(3, (1, 2))).ok


def test_check_grading_zero_algebra_any_grading():
    Z = zero_algebra(5)
    assert check_grading(Z, Grading(4, ())).ok


def test_check_grading_single_violation(lez3):
    rep = check_grading(lez3, Grading(3, (1, 1)))
    assert not rep.ok
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert v.pair == (0, 0) and v.expected_degree == 2


def test_components_leibniz(lez3):
    G = Grading(3, (1, 2))
    assert component(lez3, G, 0).is_zero()
    assert component(lez3, G, 1) == span([(1, 0)], 3)
    assert component(lez3, G, 2) == span([(0, 1)], 3)
    assert nontrivial_components(lez3, G) == {1, 2}
    assert component_count(lez3, G) == 2


def test_trivial_grading_single_component(heis5):
    G = Grading(1, (0, 0, 0))
    assert component(heis5, G, 0) == heis5.full_space()
    assert check_grading(heis5, G).ok


def test_heisenberg_mod2_grading(heis5):
    G = Grading(2, (1, 1, 0))
    assert check_grading(heis5, G).ok
    assert nontrivial_components(heis5, G) == {0, 1}


def test_component_degrees_sum_to_dim(heis5, lez3):
    for A, G in [(heis5, Grading(2, (1, 1, 0))), (lez3, Grading(3, (1, 2)))]:
        assert sum(component(A, G, i).rank for i in range(G.n)) == A.dim


def test_is_homogeneous_single_component(lez3):
    G = Grading(3, (1, 2))
    H = component(lez3, G, 1)
    ok, parts = is_homogeneous(lez3, G, H)
    assert ok
    assert parts[1] == H


def test_is_homogeneous_derived_subalgebra(lez3):
    from alglab import subspace_product

    G = Grading(3, (1, 2))
    H = subspace_product(lez3, lez3.full_space(), lez3.full_space())
    ok, parts = is_homogeneous(lez3, G, H)
    assert ok
    assert parts[2] == H  # [L,L] = span{e2} sits in degree 2


def test_is_homogeneous_fails_on_diagonal():
    A = abelian(3, 2)
    G = Grading(2, (0, 1))
    H = span([(1, 1)], 3)
    ok, parts = is_homogeneous(A, G, H)
    assert not ok
    assert all(part.is_zero() for part in parts)


def test_series_terms_are_homogeneous_on_graded_corpus(heis5, lez3):
    # terms of both series inherit the grading
    for A, G in [(heis5, Grading(2, (1, 1, 0))), (lez3, Grading(3, (1, 2)))]:
        assert check_grading(A, G).ok
        for series in (derived_series(A), lower_central_series(A)):
            for term in series.terms:
                ok, _ = is_homogeneous(A, G, term)
                assert ok


def test_random_homogeneous_products_land_in_predicted_component(heis5, lez3):
    # sampling consistency with check_grading: 10000 random homogeneous pairs
    rng = random.Random(5)
    from alglab import member, product

    cases = [(heis5, Grading(2, (1, 1, 0))), (lez3, Grading(3, (1, 2)))]
    for A, G in cases:
        assert check_grading(A, G).ok
        comps = {i: component(A, G, i) for i in range(G.n)}
        present = [i for i in range(G.n) if comps[i].rank]
        for _ in range(5000):
            i, j = rng.choice(present), rng.choice(present)
            x = sum(rng.randrange(A.p) * row for row in comps[i].basis) % A.p
            y = sum(rng.randrange(A.p) * row for row in comps[j].basis) % A.p
            assert member(comps[(i + j) % G.n], product(A, x, y))


def test_sampling_detects_broken_grading(lez3):
    # the converse direction: with a wrong degree labelling, random
    # homogeneous pairs quickly expose a product outside its component
    from alglab import member, product

    G = Grading(3, (1, 1))  # check_grading fails at pair (0, 0)
    assert not check_grading(lez3, G).ok
    rng = random.Random(6)
    comps = {i: component(lez3, G, i) for i in range(3)}
    hit = False
    for _ in range(10000):
        x = sum(rng.randrange(3) * row for row in comps[1].basis) % 3
        y = sum(rng.randrange(3) * row for row in comps[1].basis) % 3
        if not member(comps[2 % 3], product(lez3, x, y)):
            hit = True
            break
    assert hit


def test_grading_dimension_mismatch(lez3):
    with pytest.raises(InputError):
        check_grading(lez3, Grading(3, (1, 2, 0)))


def test_component_matches_the_span_of_its_basis_vectors():
    rng = random.Random(23)
    for p in (2, 7, 2147483647):
        for dim in (0, 1, 4, 7):
            n = rng.randrange(1, 6)
            G = Grading(n, tuple(rng.randrange(n) for _ in range(dim)))
            A = abelian(p, dim)
            for i in range(-n, 2 * n):
                want = span([A.basis_vector(k) for k, d in enumerate(G.degrees) if d == i % n],
                            p, dim)
                got = component(A, G, i)
                assert got == want and got.basis.dtype == np.int64
                assert not got.basis.flags.writeable


def test_is_homogeneous_matches_the_walk_over_every_residue():
    rng = np.random.default_rng(5)
    for p, n, dim in ((3, 4, 4), (7, 6, 5), (2, 3, 3)):
        G = Grading(n, tuple(int(d) for d in rng.integers(0, n, dim)))
        A = abelian(p, dim)
        for k in range(dim + 1):
            rows = rng.integers(0, p, (k, dim))
            one_degree = rows * (np.asarray(G.degrees) == G.degrees[0])  # a homogeneous H
            for H in (span(rows, p, dim), span(one_degree, p, dim)):
                walk = [intersect(H, component(A, G, i)) for i in range(n)]
                ok, parts = is_homogeneous(A, G, H)
                assert parts == walk
                assert ok == (sum(part.rank for part in walk) == H.rank)
