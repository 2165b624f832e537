"""Differential tests: template normalization and batched evaluation against
the recursive rewriting and per-word evaluation they replaced.

The oracles below are the library's earlier implementations.  `normalize`
recursed on Atom words, flattening each bracket [U, W] by peeling the last
letter of W, and sorted the resulting dict of Atom words by sort key;
`evaluate` folded each word of a combo letter by letter with one product
per letter and added the words up one coefficient at a time.  The tests
compare results with ==, repr and format_combo, and compare error types and
messages.
"""

import random

import numpy as np
import pytest

from alglab import Atom, InputError, LinearCombo, Pair, evaluate, normalize, parse
from alglab import algebra, linalg
from alglab.algebra import _products, make_algebra
from alglab.modular import check_prime, is_prime
from alglab.rewrite import atoms_of, format_combo
from conftest import zero_algebra


# -- oracles -----------------------------------------------------------------

def oracle_normalize(t, alpha, beta, p):
    check_prime(p)
    alpha %= p
    beta %= p
    if alpha == 0:
        raise InputError("alpha must be nonzero mod p")
    inv_a = linalg.inv_scalar(alpha, p)
    neg_ba = (-beta * inv_a) % p

    def norm(term):
        if isinstance(term, Atom):
            return {(term,): 1}
        lhs = norm(term.left)
        rhs = norm(term.right)
        out = {}
        for wl, cl in lhs.items():
            for wr, cr in rhs.items():
                for word, coeff in bracket_words(wl, wr).items():
                    out[word] = (out.get(word, 0) + cl * cr * coeff) % p
        return out

    def bracket_words(u, w):
        if len(w) == 1:
            return {u + w: 1}
        head, last = w[:-1], w[-1:]
        out = {}
        for word, coeff in bracket_words(u, head).items():
            out[word + last] = (out.get(word + last, 0) + inv_a * coeff) % p
        for word, coeff in bracket_words(u + last, head).items():
            out[word] = (out.get(word, 0) + neg_ba * coeff) % p
        return out

    items = [(w, c % p) for w, c in norm(t).items() if c % p]
    items.sort(key=lambda wc: tuple(a.sort_key() for a in wc[0]))
    return LinearCombo(p, tuple(items))


def oracle_evaluate(t, assignment, A):
    cache = {}

    def value(atom):
        if atom not in cache:
            if atom in assignment:
                raw = assignment[atom]
            elif atom.name in assignment:
                raw = assignment[atom.name]
            else:
                raise InputError(f"no assignment for atom {atom.name!r} (occurrence {atom.uid})")
            cache[atom] = linalg.as_vec(raw, A.p, A.dim)
        return cache[atom]

    if isinstance(t, LinearCombo):
        if t.p != A.p:
            raise InputError(f"combo is over F_{t.p}, algebra over F_{A.p}")
        acc = A.zero()
        for word, coeff in t.terms:
            w = value(word[0])
            for atom in word[1:]:
                w = _products(A.table, w, value(atom), A.p)
            acc = (acc + coeff * w) % A.p
        return acc

    def ev(term):
        if isinstance(term, Atom):
            return value(term)
        return _products(A.table, ev(term.left), ev(term.right), A.p)

    return ev(t)


def outcome(f, *args):
    try:
        return ("ok", f(*args))
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def assert_same_normal_form(t, alpha, beta, p):
    got, want = outcome(normalize, t, alpha, beta, p), outcome(oracle_normalize, t, alpha, beta, p)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return None
    assert got[1] == want[1]
    assert repr(got[1]) == repr(want[1])
    assert format_combo(got[1]) == format_combo(want[1])
    return got[1]


def assert_same_value(t, assignment, A):
    got, want = outcome(evaluate, t, assignment, A), outcome(oracle_evaluate, t, assignment, A)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    assert got[1].dtype == want[1].dtype == np.int64
    assert got[1].shape == want[1].shape == (A.dim,)
    assert got[1].tolist() == want[1].tolist()


# -- inputs ------------------------------------------------------------------

def random_text(rng, max_atoms, names="abcde"):
    """A bracketing of 2..max_atoms atoms drawn from a few spellings, so that
    spellings repeat and words tie on name but not on occurrence."""
    def build(size):
        if size == 1:
            return rng.choice(names)
        left = rng.randrange(1, size)
        return f"[{build(left)},{build(size - left)}]"

    return build(rng.randrange(2, max_atoms + 1))


def random_algebra(rng, p, dim, alpha, beta):
    table = [[[rng.randrange(p) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return make_algebra(p, dim, table, alpha, beta)


def random_assignment(rng, t, A):
    return {a.name: [rng.randrange(A.p) for _ in range(A.dim)] for a in atoms_of(t)}


PRIMES = (2, 3, 5, 11, 2147483647)  # the last one takes linalg.matmul's limb split


# -- normalize and evaluate on seeded terms ----------------------------------------

@pytest.mark.parametrize("p", PRIMES)
def test_seeded_terms_match_the_recursion(p):
    rng = random.Random(p)
    for i in range(60):
        alpha = rng.randrange(1, p)
        beta = 0 if i % 2 else rng.randrange(1, p)
        t = parse(random_text(rng, 10 if i % 6 == 0 else 7))
        combo = assert_same_normal_form(t, alpha, beta, p)
        A = random_algebra(rng, p, rng.randrange(1, 4), alpha, beta)
        assignment = random_assignment(rng, t, A)
        assert_same_value(combo, assignment, A)
        assert_same_value(t, assignment, A)


def test_int64_products_with_an_object_coefficient_sum():
    # 4 (p-1)^2 < 2^63 keeps each product on int64, but summing 16 or more
    # words does not, so only the coefficient step takes the limb split
    p = 1073741789
    assert is_prime(p) and 4 * (p - 1) ** 2 < 2**63 <= 16 * (p - 1) ** 2
    rng = random.Random(p)
    t = parse("[a,[b,[c,[d,[e,f]]]]]")
    combo = assert_same_normal_form(t, 3, 5, p)
    assert len(combo) >= 16
    A = random_algebra(rng, p, 4, 3, 5)
    for _ in range(4):
        assert_same_value(combo, random_assignment(rng, t, A), A)


@pytest.mark.parametrize("p", (5, 2147483647))
def test_row_blocks_match_the_per_word_evaluation(monkeypatch, p):
    # a block of 20 entries holds two rows at d = 3, so every stack is split
    monkeypatch.setattr(algebra, "_ROW_BLOCK", 20)
    rng = random.Random(p + 1)
    for i in range(12):
        alpha, beta = rng.randrange(1, p), rng.randrange(p)
        t = parse(random_text(rng, 8))
        combo = assert_same_normal_form(t, alpha, beta, p)
        A = random_algebra(rng, p, 3, alpha, beta)
        assert_same_value(combo, random_assignment(rng, t, A), A)


# -- hand-built terms and combos -------------------------------------------------

def test_a_reused_atom_object_merges_words():
    a, b, c = Atom("a"), Atom("b", 2, 1), Atom("c", None, 2)
    terms = [
        Pair(a, Pair(b, Pair(a, b))),
        Pair(Pair(a, a), Pair(a, a)),
        Pair(a, Pair(Pair(b, a), Pair(c, a))),
        Pair(Pair(c, Pair(a, b)), Pair(b, Pair(a, c))),
        # [a,[a,a]] cancels to 0 at (1, 1), so these bracket a zero factor there
        Pair(b, Pair(a, Pair(a, a))),
        Pair(Pair(a, Pair(a, a)), b),
    ]
    rng = random.Random(5)
    for t in terms:
        for p, alpha, beta in ((2, 1, 1), (3, 1, 2), (5, 1, 1), (5, 2, 0), (7, 3, 4)):
            combo = assert_same_normal_form(t, alpha, beta, p)
            A = random_algebra(rng, p, 3, alpha, beta)
            assignment = {a: [1, 2, 0], "b": [0, 1, 1], c: [2, 0, 1]}
            assert_same_value(combo, assignment, A)
    # [a,[a,a]] with (1,1): [a,a,a] - [a,a,a] cancels to the empty combo
    assert normalize(Pair(a, Pair(a, a)), 1, 1, 5).terms == ()
    assert normalize(Pair(b, Pair(a, Pair(a, a))), 1, 1, 5).terms == ()
    assert normalize(Pair(Pair(a, Pair(a, a)), b), 1, 1, 5).terms == ()


def test_atoms_with_equal_sort_keys_keep_the_recursion_order():
    x1, x2, y = Atom("x", 1, 0), Atom("x", 2, 0), Atom("y", None, 1)
    assert x1.sort_key() == x2.sort_key() and x1 != x2
    terms = [
        Pair(x1, Pair(y, x2)),
        Pair(x2, Pair(x1, Pair(y, x1))),
        Pair(Pair(x2, y), Pair(x1, Pair(x2, y))),
        Pair(y, Pair(x2, Pair(x1, Pair(x2, x1)))),
    ]
    rng = random.Random(7)
    for t in terms:
        for p, alpha, beta in ((3, 1, 1), (5, 1, 0), (5, 2, 3), (7, 1, 0), (11, 4, 9)):
            combo = assert_same_normal_form(t, alpha, beta, p)
            A = random_algebra(rng, p, 2, alpha, beta)
            assignment = {x1: [1, 2], x2: [2, 2], y: [0, 1]}
            assert_same_value(combo, assignment, A)


def test_mixed_lengths_and_the_empty_combo():
    a, b, c = Atom("a", None, 0), Atom("b", None, 1), Atom("c", None, 2)
    rng = random.Random(11)
    for p in (2, 5, 2147483647):
        A = random_algebra(rng, p, 3, 1, 1)
        assignment = {"a": [1, 2, 3], "b": [0, p - 1, 4], c: [p - 2, 1, 1]}
        combo = LinearCombo(p, (
            ((a,), 3), ((a, b), 1), ((c, a, b), p - 1), ((b,), 2),
            ((b, c), 4), ((a, b, c, a), 1), ((c, c, c), -2), ((b, a), p + 3),
        ))
        assert_same_value(combo, assignment, A)
        assert_same_value(LinearCombo(p, ()), {}, A)
        assert format_combo(LinearCombo(p, ())) == "0"


def test_dim_zero_algebra():
    A = zero_algebra(5)
    t = parse("[a,[b,[a,c]]]")
    assignment = {"a": [], "b": [], "c": []}
    for beta in (0, 1):
        combo = assert_same_normal_form(t, 1, beta, 5)
        assert_same_value(combo, assignment, A)
    assert_same_value(t, assignment, A)
    assert_same_value(LinearCombo(5, ()), {}, A)


def test_errors_match():
    a, b, c = Atom("a", None, 0), Atom("b", None, 1), Atom("c", None, 2)
    A = random_algebra(random.Random(13), 5, 2, 1, 1)
    combo = LinearCombo(5, (((a, b), 1), ((a, c, b), 2), ((b, c), 3)))
    for assignment in ({"a": [1, 0]}, {"a": [1, 0], "b": [0, 1]}, {}, {"a": [1, 0, 0], "b": [1, 1]}):
        assert outcome(evaluate, combo, assignment, A)[0] is InputError
        assert_same_value(combo, assignment, A)
    full = {"a": [1, 0], "b": [0, 1], "c": [1, 1]}
    for p in (3, 7):
        mismatched = LinearCombo(p, combo.terms)
        assert outcome(evaluate, mismatched, full, A) == (
            InputError, f"combo is over F_{p}, algebra over F_5")
        assert_same_value(mismatched, full, A)
        assert_same_value(LinearCombo(p, ()), full, A)
    t = parse("[a,[b,c]]")
    for alpha, beta, p in ((0, 1, 5), (5, 1, 5), (1, 1, 4), (1, 1, 2**31), (1, 0, 1)):
        assert_same_normal_form(t, alpha, beta, p)
