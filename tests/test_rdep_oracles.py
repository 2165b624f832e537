"""Differential tests: the reachable-set r-dependence routine against the
exhaustive scans it replaced, and the root-of-unity search against its scan.

The oracles below are the library's earlier implementations: `is_r_dependent`
walked all q^k exponent tuples in lexicographic order, and `d_set` built the
twisted prefix sums of every exponent tuple as numpy arrays and tested every j
against them.  They share no code with the reachable sets, so they check the
predicate, the witness (the first tuple in lexicographic order), the D-sets
and the errors raised, on valid and invalid (n, q, r) alike.  The call-order
tests check that reusing the last walk on a triple changes nothing: in any
order and from several threads, every result equals the one from an empty
cache.
"""

import itertools
import random
import sys
import threading
import time
import tracemalloc
from math import gcd
from itertools import product as iproduct

import numpy as np
import pytest

from alglab import (
    DependenceResult,
    DSet,
    InputError,
    InternalInvariantError,
    NQRTriple,
    d_set,
    is_r_dependent,
    is_r_independent,
    rigid_subsequence,
)
from alglab import rdep
from alglab.frobenius import validate_nqr
from alglab.modular import element_of_order, is_prime, multiplicative_order


# -- oracles -----------------------------------------------------------------

def oracle_canonical(nqr, entries):
    out = []
    for a in entries:
        a %= nqr.n
        if a == 0:
            raise InputError("index sequences consist of nonzero residues mod n")
        out.append(a)
    if not out:
        raise InputError("index sequence must be nonempty")
    return tuple(out)


def oracle_is_r_dependent(nqr, entries):
    """Exhaustive scan over the q^k - 1 nonzero exponent tuples, in
    lexicographic order; returns the first witness found."""
    seq = oracle_canonical(nqr, entries)
    n, q = nqr.n, nqr.q
    powers = [pow(nqr.r, e, n) for e in range(q)]
    total = sum(seq) % n
    for exps in iproduct(range(q), repeat=len(seq)):
        if not any(exps):
            continue
        if sum(powers[e] * a for e, a in zip(exps, seq)) % n == total:
            return DependenceResult(True, exps)
    return DependenceResult(False, None)


def oracle_d_set_members(nqr, seq):
    """Vectorized exhaustive enumeration over all (j, exponent-tuple) pairs."""
    n, q = nqr.n, nqr.q
    powers = [pow(nqr.r, e, n) for e in range(q)]
    total = sum(seq) % n
    js = np.arange(1, n, dtype=np.int64)
    # twisted prefix sums for all q^k prefix exponent tuples
    prefix_sums = np.zeros(1, dtype=np.int64)
    for a in seq:
        shifts = np.array([(p * a) % n for p in powers], dtype=np.int64)
        prefix_sums = (prefix_sums[:, None] + shifts[None, :]).reshape(-1) % n
    dependent = np.zeros(js.shape, dtype=bool)
    for e_last, p_last in enumerate(powers):
        rhs = (prefix_sums[:, None] + (p_last * js)[None, :]) % n
        lhs = (total + js) % n
        hit = rhs == lhs[None, :]
        if e_last == 0:
            hit[0, :] = False  # the all-zero tuple does not count
        dependent |= hit.any(axis=0)
    return set(js[dependent].tolist())


def oracle_d_set(nqr, prefix):
    seq = oracle_canonical(nqr, prefix)
    if oracle_is_r_dependent(nqr, seq).dependent:
        raise InputError("d_set needs an r-independent prefix")
    n, q, k = nqr.n, nqr.q, len(seq)
    members = oracle_d_set_members(nqr, seq)
    if len(members) > q ** (k + 1):
        raise InternalInvariantError(
            f"|D{seq}| = {len(members)} exceeds q^(k+1) = {q ** (k + 1)} "
            f"for (n,q,r)=({n},{q},{nqr.r})"
        )
    return DSet(seq, frozenset(members))


def oracle_rigid_subsequence(nqr, entries, m):
    seq = oracle_canonical(nqr, entries)
    values = list(dict.fromkeys(seq))
    chosen = [seq[0]]

    def extend(start):
        if len(chosen) == m:
            return True
        for idx in range(start, len(values)):
            chosen.append(values[idx])
            if not oracle_is_r_dependent(nqr, chosen).dependent and extend(idx + 1):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if extend(1) else None


def oracle_elements(s):
    """The members of a bit-mask set by a scan of all of its binary digits."""
    return [y for y, bit in enumerate(bin(s)[:1:-1]) if bit == "1"]


def oracle_element_of_order(p, n):
    """Upward scan, each order by repeated multiplication."""
    if (p - 1) % n != 0:
        return None
    if n == 1:
        return 1
    for w in range(2, p):
        if multiplicative_order(w, p) == n:
            return w
    return None


# -- helpers -----------------------------------------------------------------

def outcome(f, *args):
    """The result of f, or the type and message of the library error it raised."""
    try:
        return f(*args)
    except (InputError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def assert_agree(nqr, seq):
    got = outcome(is_r_dependent, nqr, seq)
    want = outcome(oracle_is_r_dependent, nqr, seq)
    assert got == want and repr(got) == repr(want), (nqr, seq)
    if isinstance(want, DependenceResult):
        assert is_r_independent(nqr, seq) == (not want.dependent)
    got = outcome(d_set, nqr, seq)
    want = outcome(oracle_d_set, nqr, seq)
    assert got == want, (nqr, seq)
    if isinstance(want, DSet):  # members may list in another order, the prefix may not
        assert repr(got.prefix) == repr(want.prefix), (nqr, seq)


def sequences(n, rng, full_below=8, per_length=6):
    """Every sequence of length <= 3 for n < full_below, else every length-1
    sequence and a seeded sample of lengths 2 and 3."""
    out = [(a,) for a in range(1, n)]
    for k in (2, 3):
        every = list(itertools.product(range(1, n), repeat=k))
        out += every if n < full_below else rng.sample(every, per_length)
    return out


def all_triples(n, qs=range(1, 6)):
    """Every (n, q, r) the NQRTriple range check accepts, valid or not."""
    for q in qs:
        for r in range(1, n):
            yield NQRTriple(n, q, r)


@pytest.fixture
def sparse_sets(monkeypatch):
    """Run the routine on Python sets instead of n-bit masks."""
    monkeypatch.setattr(rdep, "_DENSE_N_CAP", 0)
    rdep._constants.cache_clear()
    yield
    rdep._constants.cache_clear()


# -- r-dependence and D-sets ------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 26))
def test_dependence_and_d_sets_match_the_scans(n):
    rng = random.Random(n)
    for nqr in all_triples(n):
        for seq in sequences(n, rng):
            assert_agree(nqr, seq)


@pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
def test_set_representation_matches_the_scans(sparse_sets, n):
    assert isinstance(rdep._constants(n, 1, 1), rdep._SparseTriple)
    rng = random.Random(-n)
    for nqr in all_triples(n):
        for seq in sequences(n, rng, full_below=7, per_length=4):
            assert_agree(nqr, seq)


def test_large_modulus_uses_sets_and_matches_the_scans():
    n = 1048583  # prime above the bit-mask cap
    assert n > rdep._DENSE_N_CAP and is_prime(n)
    nqr = NQRTriple(n, 2, n - 1)
    assert isinstance(rdep._constants(n, 2, n - 1), rdep._SparseTriple)
    for seq in [(1,), (5, n - 5), (1, 2, 3), (1, 2, n - 3), (7, 7, 7)]:
        assert is_r_dependent(nqr, seq) == oracle_is_r_dependent(nqr, seq)
    # 3 + j = -3 - j and 7 + j = s - j for s in {7, 1, -1, -7}, worked by hand
    assert d_set(nqr, [3]).members == {n - 3}
    assert d_set(nqr, [3, 4]).members == {n - 7, n - 4, n - 3}


def test_numpy_entries_match_the_scans():
    rng = random.Random(0xA77)
    for n, q, r in [(199, 2, 198), (127, 7, 2), (91, 3, 9), (12, 2, 5)]:
        nqr = NQRTriple(n, q, r)
        for _ in range(40):
            seq = np.array([rng.randrange(1, n) for _ in range(rng.randrange(1, 4))])
            assert_agree(nqr, seq)
            assert_agree(nqr, tuple(seq))  # numpy ints in a tuple are not canonical either


def test_errors_match_the_scans():
    nqr = NQRTriple(7, 3, 2)
    for seq in ([], [0], [1, 7], [3, 14, 2], (0,), (True, False), ()):
        for f, oracle in ((is_r_dependent, oracle_is_r_dependent), (d_set, oracle_d_set)):
            got, want = outcome(f, nqr, seq), outcome(oracle, nqr, seq)
            assert got == want and got[0] is InputError
    assert outcome(d_set, nqr, [1, 2]) == (InputError, "d_set needs an r-independent prefix")
    # accepted entries that are not already canonical keep the prefix the scan builds
    for seq in ([1], (8,), (-6,), (True,), [True, 3], (1, np.int64(3)), (15, 1)):
        got, want = d_set(nqr, seq), oracle_d_set(nqr, seq)
        assert got == want and repr(got.prefix) == repr(want.prefix), seq
    assert repr(d_set(nqr, (True,)).prefix) == "(1,)"
    assert repr(d_set(nqr, [np.int64(8)]).prefix) == "(np.int64(1),)"


def test_d_sets_are_lean_and_compare_as_before():
    ds = d_set(NQRTriple(7, 3, 2), [1])
    assert not hasattr(ds, "__dict__")
    assert repr(ds) == "DSet(prefix=(1,), members=frozenset({2, 4, 6}))"
    assert ds == DSet((1,), frozenset({2, 4, 6})) and ds.size == 3
    assert hash(ds) == hash(((1,), frozenset({2, 4, 6})))
    empty = d_set(NQRTriple(7, 1, 1), [3])
    assert repr(empty) == "DSet(prefix=(3,), members=frozenset())"
    assert empty == DSet((3,), frozenset()) and empty.size == 0
    assert hash(empty) == hash(((3,), frozenset()))


def test_empty_d_sets_take_under_100_bytes_each():
    nqr = NQRTriple(32, 1, 1)  # q = 1: no twist, so every D-set is empty
    prefixes = [p for k in (1, 2, 3)
                for p in itertools.combinations_with_replacement(range(1, 32), k)]
    assert len(prefixes) == 5983
    for prefix in prefixes:  # constants and cached entries are set up before measuring
        d_set(nqr, prefix)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dsets = [d_set(nqr, prefix) for prefix in prefixes]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(ds.size == 0 and ds.prefix is prefix for ds, prefix in zip(dsets, prefixes))
    assert used / len(prefixes) < 100, used / len(prefixes)


def test_d_set_bound_violation_on_an_invalid_triple():
    # r = 5 has order 2 mod 12 but not mod 2 or 4, so the bound does not apply
    nqr = NQRTriple(12, 2, 5)
    got, want = outcome(d_set, nqr, [1]), outcome(oracle_d_set, nqr, [1])
    assert got == want and got[0] is InternalInvariantError


def test_bit_mask_members_match_the_digit_scan():
    rng = random.Random(0xB175)
    top = 1 << 20
    masks = [0, 1, 1 << (top - 1), (1 << 64) - 1, 1 << 64, (1 << 128) - 1, (1 << top) - 1]
    for bits in (2, 31, 63, 64, 65, 127, 128, 129, 1000, 4097, top):
        masks.append(rng.getrandbits(bits))  # about half the bits set
        masks.append(sum(1 << rng.randrange(bits) for _ in range(8)) | 1 << (bits - 1))
    for s in masks:
        assert rdep._DenseTriple.elements(s) == oracle_elements(s)


# -- call order: each triple keeps its last walk ----------------------------------

FUNCS = (is_r_dependent, is_r_independent, d_set)


def valid_triples(max_n):
    for n in range(2, max_n + 1):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is not None and validate_nqr(n, q, r).valid:
                yield NQRTriple(n, q, r)


def cold(f, *args):
    """f's outcome and its repr, from an empty cache: no earlier walk to reuse."""
    rdep._constants.cache_clear()
    got = outcome(f, *args)
    return got, repr(got)


def cold_results(nqr):
    """Each function on every sequence of length <= 3, each from an empty cache."""
    seqs = [seq for k in (1, 2, 3) for seq in itertools.product(range(1, nqr.n), repeat=k)]
    return {seq: {f: cold(f, nqr, seq) for f in FUNCS} for seq in seqs}


def assert_cold(want, f, *args):
    got = outcome(f, *args)
    assert (got, repr(got)) == want, (f.__name__, args)


def test_call_order_does_not_change_results():
    """Every valid triple with n <= 16 and every sequence of length <= 3, in
    lexicographic and reversed order, interleaved with a second triple, and
    shuffled with the functions in random order and rigid searches between
    them, against the cold-cache results."""
    triples = list(valid_triples(16))
    assert len(triples) == 46
    for pair in zip(triples[0::2], triples[1::2]):
        results = {nqr: cold_results(nqr) for nqr in pair}
        for nqr in pair:
            want, rng = results[nqr], random.Random(repr(nqr))
            lex = sorted(want)
            for order in (lex, lex[::-1]):
                rdep._constants.cache_clear()
                for seq in order:
                    for f in FUNCS:
                        assert_cold(want[seq][f], f, nqr, seq)
            for seq in rng.sample(lex, len(lex)):
                for f in rng.sample(FUNCS, len(FUNCS)):
                    assert_cold(want[seq][f], f, nqr, seq)
                if rng.random() < 0.1:
                    entries, m = rng.choice(lex) + seq, rng.randrange(1, 4)
                    rigid = cold(rigid_subsequence, nqr, entries, m)
                    assert_cold(rigid, rigid_subsequence, nqr, entries, m)
                    assert_cold(want[seq][d_set], d_set, nqr, seq)
        rdep._constants.cache_clear()
        for seqs in itertools.zip_longest(*(sorted(results[nqr]) for nqr in pair)):
            for nqr, seq in zip(pair, seqs):
                for f in FUNCS if seq else ():
                    assert_cold(results[nqr][seq][f], f, nqr, seq)


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_sharing_a_triple_match_the_sequential_results(threads):
    nqr = NQRTriple(31, 5, 2)
    seqs = [(a,) for a in range(1, 31)] + sorted(itertools.product(range(1, 31), repeat=2))
    seqs += sorted(random.Random(31).sample(list(itertools.product(range(1, 31), repeat=3)), 600))
    rdep._constants.cache_clear()
    want = {seq: [outcome(f, nqr, seq) for f in FUNCS] for seq in seqs}
    got = [{} for _ in range(threads)]
    start = threading.Barrier(threads)

    def run(i):
        start.wait(timeout=60)
        for seq in seqs[i::threads]:  # interleaved prefixes: neighbours share entries
            got[i][seq] = [outcome(f, nqr, seq) for f in FUNCS]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rdep._constants.cache_clear()
        workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    assert {seq: res for part in got for seq, res in part.items()} == want


def test_rigid_subsequences_match_the_scan():
    rng = random.Random(0x51D)
    for n, q, r in [(7, 3, 2), (13, 3, 3), (31, 5, 2), (11, 5, 3), (12, 2, 5)]:
        nqr = NQRTriple(n, q, r)
        for _ in range(12):
            seq = [rng.randrange(1, n) for _ in range(rng.randrange(1, 12))]
            for m in (1, 2, 3):
                assert rigid_subsequence(nqr, seq, m) == oracle_rigid_subsequence(nqr, seq, m)


def test_q_above_the_cap_is_refused():
    n = 12289  # prime, 12289 - 1 = 3 * 2^12: a four-digit q still matches the scan
    nqr = NQRTriple(n, 1024, element_of_order(n, 1024))
    assert validate_nqr(nqr.n, nqr.q, nqr.r).valid
    assert is_r_dependent(nqr, [1, 2]) == oracle_is_r_dependent(nqr, [1, 2])
    n = 65537  # prime, 65537 - 1 = 2^16, so q = 2^14 divides n - 1
    at_cap = NQRTriple(n, 1 << 14, element_of_order(n, 1 << 14))
    assert validate_nqr(at_cap.n, at_cap.q, at_cap.r).valid
    res = is_r_dependent(at_cap, [1, 2])
    e1, e2 = res.witness  # 1 + 2 = r^e1 + 2 r^e2 (mod n)
    assert res.dependent and (e1, e2) != (0, 0)
    assert (pow(at_cap.r, e1, n) + 2 * pow(at_cap.r, e2, n) - 3) % n == 0
    over = NQRTriple(2147483647, 2147483646, 7)
    for f, seq in ((is_r_dependent, [1, 2]), (d_set, [1]), (is_r_independent, [3])):
        with pytest.raises(InputError, match="q = 2147483646 is too large"):
            f(over, seq)


def test_a_witness_after_a_long_zero_prefix_answers_within_a_second():
    # zero exponents add nothing, so the first witness of a sequence is zeros up
    # to a dependent suffix, then that suffix's first witness from the scan
    rng = random.Random(80000)
    nqr = NQRTriple(7, 3, 2)
    for seq in ([1] * 80000, [rng.randrange(1, 7) for _ in range(80000)]):
        tail = next(seq[-k:] for k in range(1, 7)
                    if oracle_is_r_dependent(nqr, seq[-k:]).dependent)
        start = time.perf_counter()
        res = is_r_dependent(nqr, seq)
        assert time.perf_counter() - start < 1.0
        want = (0,) * (len(seq) - len(tail)) + oracle_is_r_dependent(nqr, tail).witness
        assert res == DependenceResult(True, want)


# -- roots of unity ------------------------------------------------------------

def test_element_of_order_matches_the_scan():
    for p in range(2, 200):
        if is_prime(p):
            for n in range(1, p + 2):
                assert element_of_order(p, n) == oracle_element_of_order(p, n), (p, n)


def oracle_multiplicative_order(a, m):
    """The step-by-step power loop that pow against phi(m) replaced."""
    if m < 1:
        raise InputError(f"modulus must be positive, got {m}")
    if m == 1:
        return 1
    a %= m
    if gcd(a, m) != 1:
        return None
    k, x = 1, a
    while x != 1:
        x = (x * a) % m
        k += 1
    return k


def test_multiplicative_order_matches_the_loop():
    for m in range(-2, 301):
        for a in range(-3, max(m, 0) + 3):
            got = outcome(multiplicative_order, a, m)
            assert got == outcome(oracle_multiplicative_order, a, m), (a, m)


def test_multiplicative_order_near_two_to_the_31():
    p = 2147483647
    assert multiplicative_order(7, p) == p - 1
    assert multiplicative_order(2, p) == 31  # 2^31 = 1 mod 2^31 - 1
    assert multiplicative_order(p - 1, p) == 2
    assert multiplicative_order(10, 2**31 - 2) is None
    assert validate_nqr(p, p - 1, 7).valid


def test_element_of_order_near_two_to_the_31():
    p = 2147483647
    assert element_of_order(p, 2) == p - 1
    assert element_of_order(p, p - 1) == 7  # the smallest primitive root
    assert element_of_order(p, 4) is None
    for n in (3, 6, 7, 151, 2 * 3 * 7 * 11):
        w = element_of_order(p, n)
        assert pow(w, n, p) == 1
        assert all(pow(w, n // ell, p) != 1 for ell in (2, 3, 7, 11, 151) if n % ell == 0)
