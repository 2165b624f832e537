import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alglab import (
    Grading,
    HypothesisError,
    InputError,
    NQRTriple,
    additive_order,
    count_active_components,
    d_set,
    index_split_check,
    is_r_dependent,
    is_r_independent,
    make_algebra,
    rigid_subsequence,
    selective_check,
    validate_nqr,
)
from alglab.modular import multiplicative_order
from conftest import abelian, leibniz2


def oracle_dependent(n, q, r, seq):
    """Definition, written straight down: plain loops, no numpy, no reuse."""
    total = sum(seq) % n
    for exps in itertools.product(range(q), repeat=len(seq)):
        if all(e == 0 for e in exps):
            continue
        if sum(pow(r, e, n) * a for e, a in zip(exps, seq)) % n == total:
            return True
    return False


def oracle_d_set(n, q, r, prefix):
    return {j for j in range(1, n) if oracle_dependent(n, q, r, list(prefix) + [j])}


NQR732 = NQRTriple(7, 3, 2)


def test_single_entry_always_independent():
    for a in range(1, 7):
        assert is_r_independent(NQR732, [a])


def test_pair_dependent_with_first_witness():
    res = is_r_dependent(NQR732, [1, 2])
    assert res.dependent
    assert res.witness == (1, 2)  # 2*1 + 4*2 = 10 = 3 = 1 + 2 mod 7


def test_pair_independent():
    assert not is_r_dependent(NQR732, [1, 1]).dependent


def test_zero_entry_rejected():
    with pytest.raises(InputError):
        is_r_dependent(NQR732, [1, 7])
    with pytest.raises(InputError):
        is_r_dependent(NQR732, [])


def test_dependence_matches_oracle_random():
    rng = random.Random(2024)
    triples = [(7, 3, 2), (5, 2, 4), (31, 5, 2), (15, 2, 14)]
    for n, q, r in triples:
        assert validate_nqr(n, q, r).valid
        nqr = NQRTriple(n, q, r)
        for _ in range(60):
            k = rng.randrange(1, 4)
            seq = [rng.randrange(1, n) for _ in range(k)]
            assert is_r_dependent(nqr, seq).dependent == oracle_dependent(n, q, r, seq)


def test_witness_actually_witnesses():
    rng = random.Random(99)
    nqr = NQRTriple(31, 5, 2)
    for _ in range(40):
        seq = [rng.randrange(1, 31) for _ in range(rng.randrange(1, 4))]
        res = is_r_dependent(nqr, seq)
        if res.dependent:
            lhs = sum(seq) % 31
            rhs = sum(pow(2, e, 31) * a for e, a in zip(res.witness, seq)) % 31
            assert lhs == rhs and any(res.witness)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dependence_invariant_under_r_scaling_and_permutation(data):
    n, q, r = data.draw(st.sampled_from([(7, 3, 2), (5, 2, 4), (15, 2, 14)]))
    nqr = NQRTriple(n, q, r)
    k = data.draw(st.integers(1, 4))
    seq = data.draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k))
    dep = is_r_dependent(nqr, seq).dependent
    scaled = [(r * a) % n for a in seq]
    assert all(scaled)  # gcd(r, n) = 1 keeps entries nonzero
    assert is_r_dependent(nqr, scaled).dependent == dep
    perm = data.draw(st.permutations(seq))
    assert is_r_dependent(nqr, list(perm)).dependent == dep


def test_d_set_golden_732():
    ds = d_set(NQR732, [1])
    assert sorted(ds.members) == [2, 4, 6]
    assert ds.size == 3 <= 3**2
    assert oracle_d_set(7, 3, 2, (1,)) == set(ds.members)


def test_d_set_golden_524():
    nqr = NQRTriple(5, 2, 4)
    ds = d_set(nqr, [1])
    assert oracle_d_set(5, 2, 4, (1,)) == set(ds.members)
    assert sorted(ds.members) == [4]
    assert ds.size <= 4


def test_d_set_trivial_group():
    # q = 1: the exponent range has no nonzero tuples at all
    nqr = NQRTriple(2, 1, 1)
    assert d_set(nqr, [1]).members == frozenset()


def test_d_set_rejects_dependent_prefix():
    with pytest.raises(InputError):
        d_set(NQR732, [1, 2])


def test_d_set_matches_oracle_on_longer_prefixes():
    rng = random.Random(7)
    for n, q, r in [(7, 3, 2), (15, 2, 14), (13, 3, 3)]:
        assert validate_nqr(n, q, r).valid
        nqr = NQRTriple(n, q, r)
        found = 0
        while found < 8:
            k = rng.randrange(1, 4)
            seq = [rng.randrange(1, n) for _ in range(k)]
            if not is_r_independent(nqr, seq):
                continue
            found += 1
            ds = d_set(nqr, seq)
            assert set(ds.members) == oracle_d_set(n, q, r, tuple(seq))
            assert ds.size <= q ** (k + 1)


def test_rigid_subsequence_m1():
    assert rigid_subsequence(NQR732, [3, 1, 2], 1) == (3,)


def test_rigid_subsequence_orbit_has_no_pair():
    # (1, 2, 4) is the twist orbit of 1; every pair (1, j) is dependent
    assert oracle_dependent(7, 3, 2, [1, 2])
    assert oracle_dependent(7, 3, 2, [1, 4])
    assert rigid_subsequence(NQR732, [1, 2, 4], 2) is None


def test_rigid_subsequence_deterministic_golden():
    nqr = NQRTriple(31, 5, 2)
    seq = list(range(1, 28))  # 27 = q^2 + 2 distinct values, first entry 1
    got = rigid_subsequence(nqr, seq, 2)
    assert got is not None and got[0] == 1
    assert is_r_independent(nqr, got)
    # deterministic: first-found in index order over distinct values
    expected_second = next(
        v for v in seq[1:] if is_r_independent(nqr, [1, v])
    )
    assert got == (1, expected_second)


def test_rigid_subsequence_threshold_guarantee_sampled():
    nqr = NQRTriple(31, 5, 2)
    rng = random.Random(123)
    for _ in range(200):
        values = rng.sample(range(1, 31), 27)
        seq = values + [rng.choice(values) for _ in range(5)]
        got = rigid_subsequence(nqr, seq, 2)
        assert got is not None
        assert got[0] == seq[0]
        assert is_r_independent(nqr, got)


def test_rigid_subsequence_rejects_bad_m():
    with pytest.raises(InputError):
        rigid_subsequence(NQR732, [1], 0)


def test_selective_check_violation_leibniz():
    A = leibniz2(3)
    G = Grading(3, (1, 2))
    nqr = NQRTriple(3, 2, 2)
    rep = selective_check(A, G, 1, nqr)
    assert not rep.ok
    assert any(v.degrees == (1, 1) for v in rep.violations)
    v = [v for v in rep.violations if v.degrees == (1, 1)][0]
    assert v.basis_indices == (0, 0) and v.value == (0, 1)


def test_selective_check_abelian_passes():
    A = abelian(3, 2)
    G = Grading(3, (1, 2))
    nqr = NQRTriple(3, 2, 2)
    for c in (1, 2, 3):
        assert selective_check(A, G, c, nqr).ok


def test_selective_check_c0_equivalence():
    nqr = NQRTriple(3, 2, 2)
    A = abelian(3, 2)
    assert not selective_check(A, Grading(3, (1, 2)), 0, nqr).ok  # L_1, L_2 nonzero
    Z = make_algebra(3, 0, np.zeros((0, 0, 0)), 1, 1)
    assert selective_check(Z, Grading(3, ()), 0, nqr).ok


def test_selective_check_hypothesis_error_on_nonzero_L0():
    A = abelian(3, 2)
    G = Grading(3, (0, 1))
    with pytest.raises(HypothesisError):
        selective_check(A, G, 1, NQRTriple(3, 2, 2))


def test_index_split_examples():
    rep = index_split_check(7)
    assert rep.ok
    # spot checks of the split: 5 + 6 = 4 mod 7 with both > 4; 1 + 2 = 3 with both < 3
    assert (5 + 6) % 7 == 4 and 5 > 4 and 6 > 4
    assert (1 + 2) % 7 == 3 and 1 < 3 and 2 < 3


def test_index_split_vacuous_n2():
    rep = index_split_check(2)
    assert rep.ok and rep.checked == 0


def test_index_split_sweep():
    for n in range(2, 80):
        assert index_split_check(n).ok


def test_additive_order():
    assert additive_order(0, 6) == 1
    assert additive_order(1, 6) == 6
    assert additive_order(2, 6) == 3
    assert additive_order(4, 6) == 3


def test_count_active_components_abelian():
    A = abelian(3, 2)
    G = Grading(3, (1, 2))
    nqr = NQRTriple(3, 2, 2)
    for b in range(3):
        res = count_active_components(A, G, 1, nqr, b)
        assert res.count == 0


def test_count_active_components_c0_observational():
    A = abelian(3, 2)
    G = Grading(3, (1, 2))
    res = count_active_components(A, G, 0, NQRTriple(3, 2, 2), 1)
    assert res.count == 2            # L_1 and L_2 are nonzero
    assert not res.asserted and res.bound is None


def test_count_active_components_refuses_a_grading_of_another_modulus():
    # c = 0 runs no selective check, which would refuse it too
    with pytest.raises(InputError, match="^grading modulus 3 != context modulus 6$"):
        count_active_components(abelian(7, 2), Grading(3, (1, 2)), 0, NQRTriple(6, 1, 1), 1)


def test_count_active_components_report_only_below_threshold():
    # graded Leibniz mod 5 with the order-4 twist: selective 1-nilpotency
    # holds (all pairs over {1, 2} are dependent), so the count runs; the
    # threshold is astronomically larger than any order in Z/5Z, so no bound
    # is asserted.
    A = leibniz2(5)
    G = Grading(5, (1, 2))
    nqr = NQRTriple(5, 4, 2)
    assert validate_nqr(5, 4, 2).valid
    assert selective_check(A, G, 1, nqr).ok
    res = count_active_components(A, G, 1, nqr, 1)
    assert res.count == 1 and res.active == (1,)   # [L_1, L_1] = span{e2}
    assert res.order_b == 5
    assert res.threshold > 10**9
    assert not res.asserted


def test_count_active_components_needs_selective():
    A = leibniz2(3)
    G = Grading(3, (1, 2))
    with pytest.raises(HypothesisError):
        count_active_components(A, G, 1, NQRTriple(3, 2, 2), 1)


def test_d_set_bound_small_sweep():
    # exhaustive over valid triples with n <= 25 and short prefixes; the
    # acceptance suite runs the full n <= 60 sweep
    for n in range(2, 26):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is None or not validate_nqr(n, q, r).valid:
                continue
            nqr = NQRTriple(n, q, r)
            for k in (1, 2):
                if q ** (k + 1) >= n - 1:
                    continue  # bound cannot bite; skip the scan
                for prefix in itertools.combinations_with_replacement(range(1, n), k):
                    if is_r_independent(nqr, prefix):
                        ds = d_set(nqr, prefix)  # raises on a bound violation
                        assert ds.size <= q ** (k + 1)


def test_rigid_subsequence_exhaustive_first_element_sweep():
    # (31, 5, 2), m = 2: starting from every possible first entry, a full
    # sweep of the remaining values always yields an independent pair
    nqr = NQRTriple(31, 5, 2)
    for a1 in range(1, 31):
        seq = [a1] + [v for v in range(1, 31) if v != a1]
        got = rigid_subsequence(nqr, seq, 2)
        assert got is not None and got[0] == a1
        assert is_r_independent(nqr, got)


def test_count_active_components_asserted_branch():
    # q = 2, c = 1 has threshold 2, and o(b) = 7 clears it, so the count is
    # certified against q^2; the order-2 twist forces abelian survivors, so
    # the certified count is 0
    A = abelian(29, 3)       # 7 | 29 - 1, three basis vectors
    G = Grading(7, (1, 2, 4))
    nqr = NQRTriple(7, 2, 6)
    assert validate_nqr(7, 2, 6).valid
    assert selective_check(A, G, 1, nqr).ok
    res = count_active_components(A, G, 1, nqr, b=1)
    assert res.asserted and res.threshold == 2 and res.order_b == 7
    assert res.bound == 4 and res.count == 0
