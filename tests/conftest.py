import itertools
from pathlib import Path

import numpy as np
import pytest

from alglab import make_algebra, product, subspace_product
from alglab.errors import InputError, InternalInvariantError, check_work
from alglab.frobenius import PermutationFailure, PermutationReport, _component_steps
from alglab.grading import component
from alglab.linalg import inv_scalar, matmul, span
from alglab.modular import element_of_order
from alglab.rdep import SelectiveViolation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_FILES = [
    "heisenberg_f5.json",
    "leibniz2_f3.json",
    "leibniz2_f7.json",
    "mat2x2_f2.json",
    "abelian2_f7_action.json",
]


def heisenberg(p=5):
    """[e,f] = z, [f,e] = -z on basis (e, f, z)."""
    T = np.zeros((3, 3, 3), dtype=np.int64)
    T[0, 1, 2] = 1
    T[1, 0, 2] = p - 1
    return make_algebra(p, 3, T, 1, 1)


def leibniz2(p=3):
    """[e1,e1] = e2, all other products zero."""
    T = np.zeros((2, 2, 2), dtype=np.int64)
    T[0, 0, 1] = 1
    return make_algebra(p, 2, T, 1, 1)


def mat2x2(p=2):
    """Full 2x2 matrix algebra with [x,y] = xy, basis (E11, E12, E21, E22)."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    T = np.zeros((4, 4, 4), dtype=np.int64)
    for (a, b), (c, d) in itertools.product(idx, idx):
        if b == c:
            T[idx[(a, b)], idx[(c, d)], idx[(a, d)]] = 1
    return make_algebra(p, 4, T, 1, 0)


def sweep_action_doc():
    """A zero algebra on L_1 + L_6 graded mod 7 over F_29, with phi = diag(w, w^6)
    and h swapping them: (7, 2, 6) leaves one D-set length to sweep."""
    w = element_of_order(29, 7)
    return {
        "p": 29, "dim": 2, "alpha": 1, "beta": 1, "table": [],
        "grading": {"n": 7, "degrees": [1, 6]},
        "action": {"n": 7, "q": 2, "r": 6, "phi": [[w, 0], [0, pow(w, 6, 29)]],
                   "h": [[0, 1], [1, 0]]},
    }


def chain_action_doc(m):
    """Two copies of a null-filiform Leibniz chain over F_29, graded mod 7:
    x_1..x_m in degree 1 and y_2..y_5 in degrees 2..5 with [x_m, x_m] = y_2 and
    [y_k, x_m] = y_(k+1), then the same with every degree negated.  phi =
    diag(omega^degree), h swaps the copies, and (n, q, r) = (7, 2, 6).  The
    product of five x_m is y_5, so the r-independent tuple (1, 1, 1, 1, 1)
    breaks selective 4-nilpotency; dim = 2m + 8."""
    w, half = element_of_order(29, 7), m + 4
    degrees = [1] * m + [2, 3, 4, 5]
    degrees += [7 - x for x in degrees]
    d = 2 * half
    table = [[o + m, o + m, o + m + 1, 1] for o in (0, half)]  # 1-based [i, j, k, coeff]
    table += [[o + m + k, o + m, o + m + k + 1, 1] for o in (0, half) for k in (1, 2, 3)]
    return {
        "p": 29, "dim": d, "alpha": 1, "beta": 1, "table": table,
        "grading": {"n": 7, "degrees": degrees},
        "action": {"n": 7, "q": 2, "r": 6,
                   "phi": [[pow(w, degrees[i], 29) * (i == j) for j in range(d)] for i in range(d)],
                   "h": [[int(j == (i + half) % d) for j in range(d)] for i in range(d)]},
    }


def abelian(p, dim):
    return make_algebra(p, dim, np.zeros((dim, dim, dim), dtype=np.int64), 1, 1)


def zero_algebra(p=2):
    return make_algebra(p, 0, np.zeros((0, 0, 0), dtype=np.int64), 1, 1)


def random_elements(rng, p, dim, count):
    return [np.asarray([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
            for _ in range(count)]


def identity_holds_for(A, a, b, c, alpha=None, beta=None):
    """The identity on one element triple: the element-level oracle of the
    basis-triple certificate check_identity_uniform."""
    alpha = A.alpha if alpha is None else alpha % A.p
    beta = A.beta if beta is None else beta % A.p
    lhs = product(A, product(A, a, b), c)
    rhs = (alpha * product(A, a, product(A, b, c))
           + beta * product(A, product(A, a, c), b)) % A.p
    return bool(np.array_equal(lhs, rhs))


def oracle_rref(M, p):
    """rref as it stood with a Python loop over rows for each pivot column:
    the differential oracle of the one-numpy-step-per-column rref."""
    A = (np.asarray(M, dtype=np.int64) % p).copy()
    rows, cols = A.shape
    r = 0
    pivots = []
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * inv_scalar(A[r, c], p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def oracle_member(S, v):
    """member as it stood, reducing v against one echelon row at a time: the
    differential oracle of member and is_subspace_of."""
    x = np.asarray(v, dtype=np.int64) % S.p
    for row in S.basis:
        c = int(np.argmax(row != 0)) if row.any() else S.ambient
        if c < S.ambient and x[c]:
            x = (x - x[c] * row) % S.p
    return not x.any()


def apply_to_subspace(S, g, p):
    """Image of S under the linear map x -> g x (column-vector action)."""
    if S.is_zero():
        return S
    return span(matmul(S.basis, g.T % p, p), p, S.ambient)


def untwisted_components(comps, h, r):
    """Indices i (ascending) where h does not map comps[i] onto comps[r*i mod n]."""
    n = len(comps)
    return [i for i in range(n) if apply_to_subspace(comps[i], h, comps[i].p) != comps[(r * i) % n]]


def oracle_h_permutation_check(A, G, fd):
    """h_permutation_check as it stood when it built all n components and their
    images under h: the differential oracle of the mask on h's entries."""
    n, r = fd.triple.n, fd.triple.r
    if G.n != n:
        raise InputError(f"grading modulus {G.n} != action modulus {n}")
    check_work(2 * _component_steps(n, A.dim), f"the h-permutation check over {n:,} components")
    comps = tuple(component(A, G, i) for i in range(n))
    failures = tuple(PermutationFailure(i, (r * i) % n) for i in untwisted_components(comps, fd.h, r))
    return PermutationReport(not failures, n, failures)


def oracle_selective_witness(A, comps, tup):
    """The selective witness as it stood: the left-normalized product of
    every basis tuple of the components in lexicographic order, up to the
    first nonzero one.  The oracle of the entry-by-entry stacked pick."""
    index_lists = []
    for d in tup:
        basis = comps[d].basis
        index_lists.append([np.flatnonzero(row)[0] for row in basis])
    for combo in itertools.product(*[range(len(lst)) for lst in index_lists]):
        vecs = [comps[d].basis[c_i] for d, c_i in zip(tup, combo)]
        val = vecs[0]
        for v in vecs[1:]:
            val = product(A, val, v)
        if val.any():
            idxs = tuple(int(index_lists[pos][c_i]) for pos, c_i in enumerate(combo))
            return SelectiveViolation(tuple(tup), idxs, tuple(val.tolist()))
    raise InternalInvariantError("nonzero subspace product without a basis witness")


def oracle_active_degrees(A, G, c, b):
    """The degrees a that count_active_components finds active, as it found
    them: one chain of subspace products [L_a, L_b, ..., L_b] per degree."""
    comp_b = component(A, G, b)
    active = []
    for a in sorted(set(G.degrees)):
        acc = component(A, G, a)
        for _ in range(c):
            if acc.is_zero():
                break
            acc = subspace_product(A, acc, comp_b)
        if not acc.is_zero():
            active.append(a)
    return tuple(active)


@pytest.fixture
def heis5():
    return heisenberg(5)


@pytest.fixture
def lez3():
    return leibniz2(3)


@pytest.fixture
def mat2():
    return mat2x2(2)
