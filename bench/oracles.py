"""Small independent oracles for cross-checking alglab's answers.

None of them imports alglab.  Each re-derives an answer from the
definitions with a different (and slower or simpler) method than the
program uses, so a shared bug is unlikely to pass both.
"""

from __future__ import annotations

import numpy as np

_BATCH = 1024  # tables per einsum block: keeps the (B, d, d, d, d) tensors small


def identity_mask(tables: np.ndarray, p: int, alpha: int, beta: int) -> np.ndarray:
    """Which (d, d, d) tables satisfy [[a,b],c] = alpha [a,[b,c]] + beta [[a,c],b]
    on all basis triples.  tables has shape (B, d, d, d); T[i, j] = [b_i, b_j]."""
    T = np.asarray(tables, dtype=np.int64)
    out = np.empty(len(T), dtype=bool)
    for s in range(0, len(T), _BATCH):
        X = T[s : s + _BATCH]
        # right-multiplication operators R_k[m, l] = T[m, k, l]
        R = X.transpose(0, 2, 1, 3)
        lhs = np.einsum("bijm,bkml->bijkl", X, R)      # [[b_i, b_j], b_k]
        nested = np.einsum("bjkm,biml->bijkl", X, X)   # [b_i, [b_j, b_k]]
        swapped = np.einsum("bikm,bjml->bijkl", X, R)  # [[b_i, b_k], b_j]
        diff = (lhs - alpha * nested - beta * swapped) % p
        out[s : s + _BATCH] = ~diff.reshape(len(X), -1).any(axis=1)
    return out


def identity_holds(table, p: int, alpha: int, beta: int) -> bool:
    return bool(identity_mask(np.asarray(table)[None], p, alpha, beta)[0])


def grading_holds(table, degrees, n: int) -> bool:
    """Every nonzero [b_i, b_j] coefficient sits on a b_k of degree deg(i) + deg(j)."""
    for i, j, k in zip(*np.nonzero(np.asarray(table))):
        if degrees[k] != (degrees[i] + degrees[j]) % n:
            return False
    return True


def is_r_dependent(n: int, q: int, r: int, seq) -> bool:
    """Reachable-set form of r-dependence: track the plain partial sum and the
    set of twisted partial sums that used at least one nonzero exponent."""
    powers = [pow(r, e, n) for e in range(q)]
    plain, twisted = 0, set()
    for a in seq:
        twisted = {(s + w * a) % n for s in twisted for w in powers} | {
            (plain + w * a) % n for w in powers[1:]
        }
        plain = (plain + a) % n
    return plain in twisted


def d_set(n: int, q: int, r: int, prefix) -> set[int]:
    return {j for j in range(1, n) if is_r_dependent(n, q, r, tuple(prefix) + (j,))}


def random_tables(p: int, seed: int, samples: int, slots, d: int) -> np.ndarray:
    """The candidate tables of a random-mode search spec, rebuilt from its
    documented stream: one random.Random(seed).randrange(p) draw per slot,
    candidate by candidate."""
    import random

    rng = random.Random(seed)
    coeffs = np.asarray(
        [rng.randrange(p) for _ in range(samples * len(slots))], dtype=np.int64
    ).reshape(samples, len(slots))
    tables = np.zeros((samples, d, d, d), dtype=np.int64)
    for pos, (i, j, k) in enumerate(slots):
        tables[:, i, j, k] = coeffs[:, pos]
    return tables


def graded_slots(degrees, n: int) -> list[tuple[int, int, int]]:
    d = len(degrees)
    return [
        (i, j, k)
        for i in range(d)
        for j in range(d)
        for k in range(d)
        if degrees[k] == (degrees[i] + degrees[j]) % n
    ]
