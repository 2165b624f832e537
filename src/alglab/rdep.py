"""Dependence combinatorics for index sequences modulo n.

A sequence (a_1, ..., a_k) of nonzero residues mod n is r-dependent (for an
NQRTriple (n, q, r), so r has order q modulo every divisor d > 1 of n) if

    a_1 + ... + a_k  =  r^e_1 * a_1 + ... + r^e_k * a_k   (mod n)

for some exponent tuple (e_1, ..., e_k) in {0, ..., q-1}^k that is not all
zero; otherwise it is r-independent.  Dependence is inherited by
supersequences (append exponent 0 to the new entries), which is what makes
backtracking search for independent subsequences sound.

The order condition gives two facts the routines here rely on.  The twists
r^0, ..., r^(q-1) are distinct mod n.  And 1 - r^e is a unit mod n for
0 < e < q: if g = gcd(1 - r^e, n) > 1, then r^e = 1 mod g, against the order
q of r mod g.

Subtracting the plain sum, the condition says that the offsets
(r^e_i - 1) * a_i sum to 0 mod n for some exponent tuple that is not all
zero.  Every predicate here walks the sequence once and keeps the set of such
offset sums that use a nonzero exponent, so a call costs O(k*q) shifts of a
set of residues rather than a scan of the q^k exponent tuples.  A call walks
only the entries after those it shares with the last walk on its triple: the
sets depend on the sequence alone and each call is charged its whole walk, so
neither results nor refusals depend on the calls made before.

These predicates drive the component-product checks: in a graded algebra
whose zero component vanishes, products over r-independent degree tuples are
the ones forced to vanish by the selective nilpotency condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from itertools import product as iproduct
from math import gcd
from typing import Optional, Sequence

import numpy as np

from .algebra import Algebra, _chain_ranks, _products, _subspace_products
from .errors import HypothesisError, InputError, InternalInvariantError, check_work
from .frobenius import NQRTriple
from .grading import Grading, check_grading, nontrivial_components
from .series import order_threshold


def _canonical_entries(nqr: NQRTriple, entries: Sequence[int]) -> tuple[int, ...]:
    if type(entries) is tuple and entries and all(type(a) is int and 0 < a < nqr.n for a in entries):
        return entries  # already canonical: nonzero Python ints below n
    out = tuple([a % nqr.n for a in entries])
    if 0 in out:
        raise InputError("index sequences consist of nonzero residues mod n")
    if not out:
        raise InputError("index sequence must be nonempty")
    return out


# Up to this n a set of residues is an n-bit Python int (bit y set when y is
# in it), so shifting the whole set costs two big-int shifts; above it, sets
# are Python sets, whose size stays below q^k however large n is.
_DENSE_N_CAP = 1 << 20
_STEP_OFFSETS = 1 << 13  # offsets the cached entries of one triple hold in all
_NO_MEMBERS = frozenset()  # shared by every empty D-set


class _Triple(dict):
    """Constants of one (n, q, r): the q distinct twists r^e, the units
    1/(1 - r^e) mod n for e >= 1, as a dict the offsets of the entries seen
    so far, and the last walk: a sequence and the offset sums after each of
    its prefixes."""

    def __init__(self, n: int, q: int, r: int):
        super().__init__()
        self.n, self.q = n, q
        self.last = ((), (self.empty,))
        self.what = f"r-dependence mod {n} at q = {q}"
        check_work(2 * q, self.what)  # each twist and its inverse: about 2 µs
        self.twists = tuple(pow(r, e, n) for e in range(q))
        self.nonzero = self.twists[1:]
        self.units = tuple(pow(1 - w, -1, n) for w in self.nonzero)  # 1/(1 - r^e) mod n

    def __missing__(self, a):
        """The offsets (r^e - 1) a over all e, those over e >= 1, and the set
        of the latter."""
        n, b = self.n, int(a)
        offsets = tuple((w - 1) * b % n for w in self.twists)
        twisting = tuple((w - 1) * b % n for w in self.nonzero)
        step = (offsets, twisting, self.shift(self.origin, twisting))
        if (len(self) + 1) * len(self.twists) <= _STEP_OFFSETS:
            self[b] = step
        return step


class _DenseTriple(_Triple):
    empty, origin = 0, 1

    def work(self, k: int) -> int:
        """Each entry: 2 µs, and q shifts of an n-bit int at about 16 ns a word."""
        return k * (2 + self.q * (self.n // 64 + 1) // 64)

    def shift(self, s: int, offsets) -> int:
        """The union of the cyclic shifts of s by each offset."""
        x = 0
        for t in offsets:
            x |= s << t
        return (x & ((1 << self.n) - 1)) | (x >> self.n)

    @staticmethod
    def has(s: int, y: int) -> bool:
        return s >> y & 1 == 1

    @staticmethod
    def elements(s: int) -> list[int]:
        """The set bits, lowest first, in O(n/64 + members) small-int steps."""
        words = [s] if s >> 64 == 0 else np.frombuffer(
            s.to_bytes(-(-s.bit_length() // 64) * 8, "little"), "<u8").tolist()
        out = []
        for i, w in enumerate(words):
            while w:
                low = w & -w
                out.append(64 * i + low.bit_length() - 1)
                w ^= low
        return out


class _SparseTriple(_Triple):
    empty, origin = frozenset(), frozenset((0,))
    elements = staticmethod(list)

    def work(self, k: int) -> int:
        """Each entry: 2 µs, and q shifts of at most q^(k-1) residues at 0.5 µs each."""
        return k * (2 + self.q * min(self.n, self.q ** (k - 1)) // 2)

    def shift(self, s: frozenset, offsets) -> frozenset:
        n = self.n
        return frozenset((y + t) % n for y in s for t in offsets)

    @staticmethod
    def has(s: frozenset, y: int) -> bool:
        return y in s


@lru_cache(maxsize=64)
def _constants(n: int, q: int, r: int) -> _Triple:
    return (_DenseTriple if n <= _DENSE_N_CAP else _SparseTriple)(n, q, r)


def _reach(c: _Triple, seq: Sequence[int]):
    """The offset sums of seq that use at least one nonzero exponent.  Walks
    only the entries after the run seq shares with c.last (a prefix's sums
    depend on it alone) but charges all of seq; c.last is replaced whole."""
    check_work(c.work(len(seq)), c.what)
    last, reaches = c.last
    if seq == last[:len(seq)]:
        return reaches[len(seq)]
    i = 0
    while i < len(last) and seq[i] == last[i]:  # seq is no prefix of last: stops inside seq
        i += 1
    reaches = list(reaches[:i + 1])
    for a in seq[i:]:
        offsets, _, start = c[a]
        reaches.append(c.shift(reaches[-1], offsets) | start)
    c.last = (seq, tuple(reaches))
    return reaches[-1]


def _is_dependent(nqr: NQRTriple, entries: Sequence[int]) -> bool:
    """r-dependence without a witness."""
    c = _constants(nqr.n, nqr.q, nqr.r)
    return c.has(_reach(c, _canonical_entries(nqr, entries)), 0)


def _first_witness(c: _Triple, seq: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically first nonzero exponent tuple whose offsets sum
    to 0: zeros up to the shortest dependent suffix seq[i:], then a greedy walk
    against the sums reachable from each later suffix (seq[i] takes the least
    nonzero exponent).  Charged at _reach's rate: 0.2-1 µs a step, measured
    for n = 7 to 2^20 and q = 2 to 2^14."""
    n, k = c.n, len(seq)
    check_work(c.work(k), f"a witness of {c.what}")
    sums, twisted, i = [c.origin], c.empty, k  # offset sums of seq[i:]; those with a twist
    while i and not c.has(twisted, 0):
        i -= 1
        offsets, twisting, _ = c[seq[i]]
        twisted = c.shift(twisted, offsets) | c.shift(sums[-1], twisting)
        sums.append(c.shift(sums[-1], offsets))
    exps, s = [0] * i, 0
    for a in map(int, seq[i:]):  # numpy entries would overflow the shifts
        sums.pop()  # sums[-1]: the offset sums of the entries after a
        for e, w in enumerate(c.twists):
            t = (w - 1) * a % n
            if (e or len(exps) > i) and c.has(sums[-1], (-s - t) % n):
                break
        else:
            raise InternalInvariantError(f"no witness continues {tuple(exps)} for {seq}")
        exps.append(e)
        s = (s + t) % n
    return tuple(exps)


@dataclass(frozen=True)
class DependenceResult:
    dependent: bool
    witness: Optional[tuple[int, ...]]  # first exponent tuple in lexicographic order

    def __bool__(self) -> bool:
        return self.dependent


def is_r_dependent(nqr: NQRTriple, entries: Sequence[int]) -> DependenceResult:
    """Decide r-dependence from the offset sums reachable in one pass over
    the sequence (O(k*q) set shifts); when dependent, the witness is the first
    nonzero exponent tuple in lexicographic order."""
    seq = _canonical_entries(nqr, entries)
    c = _constants(nqr.n, nqr.q, nqr.r)
    if not c.has(_reach(c, seq), 0):
        return DependenceResult(False, None)
    return DependenceResult(True, _first_witness(c, seq))


def is_r_independent(nqr: NQRTriple, entries: Sequence[int]) -> bool:
    return not _is_dependent(nqr, entries)


@dataclass(frozen=True, slots=True)
class DSet:
    prefix: tuple[int, ...]
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


def d_set(nqr: NQRTriple, prefix: Sequence[int]) -> DSet:
    """All nonzero j making prefix + (j,) r-dependent.

    The prefix must be r-independent.  With R the offset sums of the prefix
    that use a nonzero exponent, prefix + (j,) is dependent exactly when
    (1 - r^e) j = b (mod n) for some e >= 1 and some b in R or b = 0, that
    is j = b / (1 - r^e), as 1 - r^e is a unit mod n.  The result is certified
    against the cardinality bound q^(k+1); exceeding it would falsify a
    proven statement, so that raises InternalInvariantError rather than
    returning.
    """
    seq = _canonical_entries(nqr, prefix)
    c = _constants(nqr.n, nqr.q, nqr.r)
    reach = _reach(c, seq)
    if c.has(reach, 0):
        raise InputError("d_set needs an r-independent prefix")
    n, q, k = nqr.n, nqr.q, len(seq)
    offsets = c.elements(reach | c.origin)
    check_work(len(offsets) * len(c.nonzero) // 2, c.what)  # about 0.5 µs a pair
    members = {b * u % n for u in c.units for b in offsets}
    members.discard(0)
    if len(members) > q ** (k + 1):
        raise InternalInvariantError(
            f"|D{seq}| = {len(members)} exceeds q^(k+1) = {q ** (k + 1)} "
            f"for (n,q,r)=({n},{q},{nqr.r})"
        )
    return DSet(seq, frozenset(members) if members else _NO_MEMBERS)


def d_set_work(nqr: NQRTriple, k: int) -> int:
    """d_set's steps on k entries: the offset sums, then its pairs of r^e and
    offset, of which there are at most min(n, q^k) (one step per two pairs)."""
    c = _constants(nqr.n, nqr.q, nqr.r)
    return c.work(k) + min(nqr.n, nqr.q ** k) * len(c.nonzero) // 2


def rigid_subsequence(
    nqr: NQRTriple, entries: Sequence[int], m: int
) -> Optional[tuple[int, ...]]:
    """An r-independent subsequence of length m that starts with the first
    entry, or None.

    Deterministic: candidate values are the distinct values of the sequence
    in first-occurrence order, and the search backtracks over them in index
    order.  Whenever the sequence contains at least q^m + m distinct values,
    a subsequence is guaranteed to exist; below that threshold the search
    still runs and may legitimately return None.  With no closed form for its
    work, it charges each dependence test to the work budget as it goes.
    """
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    seq = _canonical_entries(nqr, entries)
    c = _constants(nqr.n, nqr.q, nqr.r)
    values = list(dict.fromkeys(seq))
    what = f"a rigid search over {len(values)} distinct values for m = {m} at q = {nqr.q}"
    spent = 0
    # backtracking on a list: nexts[j] indexes the next value to try after chosen[: j + 1]
    chosen, nexts = [seq[0]], [1]
    while len(chosen) < m:
        if nexts[-1] < len(values):
            chosen.append(values[nexts[-1]])
            nexts[-1] += 1
            spent += c.work(len(chosen))
            check_work(spent, what)
            # dependence is inherited by supersequences: safe to prune here
            if not _is_dependent(nqr, chosen):
                nexts.append(nexts[-1])
                continue
        elif len(nexts) == 1:
            return None
        else:  # no later value extends chosen: drop its last entry
            nexts.pop()
        chosen.pop()
    return tuple(chosen)


@dataclass(frozen=True)
class SelectiveViolation:
    degrees: tuple[int, ...]
    basis_indices: tuple[int, ...]   # one witness basis tuple with nonzero product
    value: tuple[int, ...]


@dataclass(frozen=True)
class SelectiveReport:
    ok: bool
    c: int
    tuples_checked: int
    independent_tuples: int
    violations: tuple[SelectiveViolation, ...]


def selective_check(A: Algebra, G: Grading, c: int, nqr: NQRTriple) -> SelectiveReport:
    """Check the selective nilpotency condition at level c.

    For every (c+1)-tuple of degrees from the nonzero components that is
    r-independent, the left-normalized product of the corresponding
    components must vanish; multilinearity reduces this to component
    subspace products.  Requires a valid grading with trivial zero component
    (a nonzero L_0 is a hypothesis failure, not a violation).  This is
    _selective_violations on a stack of one table.
    """
    if c < 0:
        raise InputError(f"c must be >= 0, got {c}")
    if G.n != nqr.n:
        raise InputError(f"grading modulus {G.n} != context modulus {nqr.n}")
    grade_rep = check_grading(A, G)
    if not grade_rep.ok:
        raise InputError("selective_check needs a valid grading")
    if 0 in nontrivial_components(A, G):
        raise HypothesisError("the zero component must vanish")

    checked, independent, (failing,) = _selective_violations(A.table[None], A.p, G.degrees, c, nqr)
    violations = tuple(_selective_witness(A, G, tup) for tup in failing)
    return SelectiveReport(not violations, c, checked, independent, violations)


@lru_cache(maxsize=256)
def _independent_tuples(nqr: NQRTriple, degrees: tuple[int, ...],
                        length: int) -> tuple[tuple[int, ...], ...]:
    """The r-independent tuples of the given length over degrees, in
    lexicographic order."""
    return tuple(t for t in iproduct(degrees, repeat=length) if not _is_dependent(nqr, t))


def _selective_violations(tables: np.ndarray, p: int, basis_degrees: Sequence[int], c: int,
                          nqr: NQRTriple) -> tuple[int, int, list[list[tuple[int, ...]]]]:
    """The selective check at level c on a (B, d, d, d) stack of tables that
    share the grading basis_degrees (the degree of each basis vector, none of
    them 0).  Returns (tuples checked, r-independent tuples, and per table
    the degree tuples whose component product is nonzero, in lexicographic
    order).

    The independent tuples are found once for the whole stack.  Their walk
    shares each prefix's component product, which holds only the tables
    where it is still nonzero, and stops as soon as no table is left.
    """
    degrees = tuple(sorted(set(basis_degrees)))
    check_work(len(degrees) ** (c + 1) * _constants(nqr.n, nqr.q, nqr.r).work(c + 1),
               f"a selective check of {len(degrees)}^{c + 1} degree tuples at q = {nqr.q}")
    tuples = _independent_tuples(nqr, degrees, c + 1)
    B, d = tables.shape[:2]
    eye, labels = np.eye(d, dtype=np.int64), np.asarray(basis_degrees)
    comps = {i: eye[labels == i][None] for i in degrees}  # echelon bases, shared by the stack
    failing: list[list[tuple[int, ...]]] = [[] for _ in range(B)]

    def walk(group, depth: int, live: np.ndarray, acc) -> None:
        if depth == c + 1:
            for b in live.tolist():
                failing[b].append(group[0])
            return
        for i, sub in groupby(group, key=lambda tup: tup[depth]):
            nxt = comps[i]
            if depth:
                nxt, ranks = _subspace_products(tables[live], acc, nxt, p)
                live_i, nxt = live[ranks > 0], nxt[ranks > 0, : ranks.max()]
            else:
                live_i = live
            if live_i.size:
                walk(list(sub), depth + 1, live_i, nxt)

    if B and tuples:
        walk(tuples, 0, np.arange(B), None)
    return len(degrees) ** (c + 1), len(tuples), failing


def _selective_witness(A: Algebra, G: Grading, tup) -> SelectiveViolation:
    """The lexicographically first basis tuple with nonzero left-normalized
    product, one entry at a time: entry j is the first basis vector e of
    L_{tup[j]} whose [x, e] (x the product so far) times the later components
    is nonzero, one stacked chain for all e.  Products of basis tuples span
    every subspace product, so a nonzero one has a witness."""
    labels, eye = np.asarray(G.degrees), np.eye(A.dim, dtype=np.int64)
    indices = [np.flatnonzero(labels == i) for i in tup]
    x, picked = None, []
    for j, idx in enumerate(indices):
        rows = eye[idx] if x is None else _products(A.table, x, eye[idx], A.p)
        ranks = _chain_ranks(A.table, rows[:, None], [eye[i] for i in indices[j + 1:]], A.p)
        if not ranks.any():
            raise InternalInvariantError("nonzero subspace product without a basis witness")
        b = int(np.argmax(ranks > 0))
        x = rows[b]
        picked.append(int(idx[b]))
    return SelectiveViolation(tuple(tup), tuple(picked), tuple(x.tolist()))


@dataclass(frozen=True)
class IndexSplitReport:
    n: int
    checked: int
    ok: bool
    failures: tuple[tuple[int, int, int], ...]


def index_split_check(n: int) -> IndexSplitReport:
    """For 1 <= i, j <= n-1 with i + j = k mod n and 1 <= k <= n-1, both i
    and j exceed k or both are below k.  Exhaustive check; a failure would
    falsify elementary arithmetic and is reported rather than raised."""
    if n < 2:
        raise InputError(f"n must be >= 2, got {n}")
    check_work((n - 1) ** 2, f"an index-split check of {n - 1}^2 pairs mod {n}")
    failures = []
    checked = 0
    for i in range(1, n):
        for j in range(1, n):
            k = (i + j) % n
            if k == 0:
                continue
            checked += 1
            if not ((i > k and j > k) or (i < k and j < k)):
                failures.append((i, j, k))
    return IndexSplitReport(n, checked, not failures, tuple(failures))


def additive_order(b: int, n: int) -> int:
    """Order of b in the additive group Z/nZ."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    return n // gcd(b % n, n) if b % n else 1


@dataclass(frozen=True)
class ActiveComponentCount:
    b: int
    c: int
    count: int                # number of a with [L_a, L_b, ..., L_b] != 0  (c copies)
    active: tuple[int, ...]
    order_b: int
    threshold: Optional[int]  # undefined for q = 1 or c = 0
    bound: Optional[int]      # q^(c+1) when the threshold applies, else None
    asserted: bool


def count_active_components(
    A: Algebra, G: Grading, c: int, nqr: NQRTriple, b: int
) -> ActiveComponentCount:
    """Count degrees a whose component survives c right-multiplications by L_b.

    When the additive order of b clears the order threshold the count is
    certified against the bound q^(c+1) (violations raise
    InternalInvariantError); below the threshold, and always for c = 0, the
    count is purely observational.
    """
    if c < 0:
        raise InputError(f"c must be >= 0, got {c}")
    if G.n != nqr.n:
        raise InputError(f"grading modulus {G.n} != context modulus {nqr.n}")
    rep = selective_check(A, G, c, nqr) if c >= 1 else None
    if rep is not None and not rep.ok:
        raise HypothesisError("selective nilpotency fails; the count bound says nothing here")
    b %= nqr.n
    o_b = additive_order(b, nqr.n)
    labels, eye = np.asarray(G.degrees, dtype=np.int64), np.eye(A.dim, dtype=np.int64)
    occurring = sorted(set(G.degrees))  # L_a = 0 for the rest: never active
    X = eye * (labels == np.asarray(occurring, dtype=np.int64)[:, None])[:, :, None]
    ranks = _chain_ranks(A.table, X, [eye[labels == b]] * c, A.p)
    active = [a for a, rank in zip(occurring, ranks.tolist()) if rank]
    threshold = order_threshold(nqr.q, c) if (nqr.q >= 2 and c >= 1) else None
    asserted = threshold is not None and o_b > threshold
    bound = nqr.q ** (c + 1) if asserted else None
    if asserted and len(active) > bound:
        raise InternalInvariantError(
            f"{len(active)} active components exceed q^(c+1) = {bound}"
        )
    return ActiveComponentCount(
        b, c, len(active), tuple(active), o_b, threshold, bound, asserted,
    )
