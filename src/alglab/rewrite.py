"""Free bracket terms: parsing, left-normalization, and evaluation.

A term is a binary bracketing tree over atoms.  Because alpha is invertible,
the defining identity can be read as a rewrite rule

    [a, [b, c]]  ->  (1/alpha) [[a, b], c]  -  (beta/alpha) [[a, c], b]

which turns any bracketing into a linear combination of left-normalized
words [x1, x2, ..., xs] = [...[[x1,x2],x3]...,xs] of the same length in the
same atoms.  Soundness is contractual through evaluation: evaluating a term
and its normal form in any algebra satisfying the identity with the same
(alpha, beta) gives the same element.

Normalization runs on words of integer atom ids: [U, W] is U followed by
permutations of W with coefficients fixed by len(W) and (alpha, beta, p), so
each length's template is computed once.  Evaluation stacks equal-length words.

Atoms are positional: every occurrence in the source text is its own
variable, even when spelled identically.  A degree suffix ("x_3") is a label
shared by occurrences of the same spelling; it never merges them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Mapping, Optional, Union

import numpy as np

from . import linalg
from .algebra import Algebra, _products, _rowwise_products
from .errors import InputError, ParseError, check_work
from .modular import check_prime


@dataclass(frozen=True)
class Atom:
    name: str
    degree: Optional[int] = None
    uid: int = 0  # occurrence index within the parsed term

    def __repr__(self) -> str:
        return f"Atom({self.name!r}@{self.uid})"

    def sort_key(self) -> tuple[str, int]:
        return (self.name, self.uid)


@dataclass(frozen=True)
class Pair:
    left: "BracketTerm"
    right: "BracketTerm"


BracketTerm = Union[Atom, Pair]
Word = tuple[Atom, ...]


def atoms_of(t: BracketTerm) -> list[Atom]:
    """Atoms in left-to-right order."""
    if isinstance(t, Atom):
        return [t]
    return atoms_of(t.left) + atoms_of(t.right)


def parse(text: str) -> BracketTerm:
    """Parse `term := atom | "[" term "," term "]"` with atoms
    `name` or `name_degree`.  Whitespace is permitted anywhere."""
    parser = _Parser(text)
    term = parser.parse_term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError(parser.pos, "trailing input after term")
    return term


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.counter = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_term(self) -> BracketTerm:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError(self.pos, "unexpected end of input")
        if self.text[self.pos] == "[":
            self.pos += 1
            left = self.parse_term()
            self.expect(",")
            right = self.parse_term()
            self.expect("]")
            return Pair(left, right)
        return self.parse_atom()

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(self.pos, f"expected {ch!r}")
        self.pos += 1

    def parse_atom(self) -> Atom:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        if not token:
            raise ParseError(start, "expected an atom")
        name, degree = token, None
        if "_" in token:
            head, _, tail = token.rpartition("_")
            if not head:
                raise ParseError(start, "atom name cannot start with '_'")
            if not tail.isdigit():
                raise ParseError(start, f"malformed degree suffix in {token!r}")
            name, degree = token, int(tail)  # keep the full spelling as the name
        uid = self.counter
        self.counter += 1
        return Atom(name, degree, uid)


def unparse(t: BracketTerm) -> str:
    if isinstance(t, Atom):
        return t.name
    return f"[{unparse(t.left)},{unparse(t.right)}]"


@dataclass(frozen=True)
class LinearCombo:
    """Formal F_p-combination of left-normalized words; zero coefficients dropped."""

    p: int
    terms: tuple[tuple[Word, int], ...]  # sorted by word sort key

    def __len__(self) -> int:
        return len(self.terms)

    def words(self) -> list[Word]:
        return [w for w, _ in self.terms]


@lru_cache(maxsize=256)
def _template(k: int, inv_a: int, neg_ba: int, p: int):
    """[U, W] for len(W) = k as the sum of coeff * (U + getter(W)) over (positions,
    getter, coeff), getter(W) = W[positions], in expansion order, zero terms dropped.
    Peels x off W = [H, x]: [U,[H,x]] = 1/a [[U,H],x] - b/a [[U,x],H]."""
    if k == 1:
        return (((0,), itemgetter(slice(None)), 1),)
    head, last = _template(k - 1, inv_a, neg_ba, p), (k - 1,)
    out = [(s + last, inv_a * c % p) for s, _, c in head]
    out += [(last + s, neg_ba * c % p) for s, _, c in head]
    return tuple((s, itemgetter(*s), c) for s, c in out if c)


def normalize(t: BracketTerm, alpha: int, beta: int, p: int) -> LinearCombo:
    """Rewrite t into a combination of left-normalized words.

    Works innermost-first, left branch first: both children are normalized
    to words over integer atom ids (equal atoms share one), then each
    bracket [U, W] is expanded by the cached template for len(W).  Words
    sort by their atoms' sort keys, and words that tie keep the order in
    which they first appear.  Only surviving words become Atom tuples.
    Requires alpha invertible mod p.
    """
    check_prime(p)
    alpha %= p
    beta %= p
    if alpha == 0:
        raise InputError("alpha must be nonzero mod p")
    inv_a = linalg.inv_scalar(alpha, p)
    neg_ba = (-beta * inv_a) % p
    atoms = sorted(dict.fromkeys(atoms_of(t)), key=Atom.sort_key)
    ids = {a: i for i, a in enumerate(atoms)}
    keys = [a.sort_key() for a in atoms]
    ties = len(set(keys)) < len(keys)
    what, spent = f"normalizing a term of {len(atoms)} atoms", 0

    def norm(term: BracketTerm) -> dict[tuple[int, ...], int]:
        nonlocal spent
        if isinstance(term, Atom):
            return {(ids[term],): 1}
        lhs = norm(term.left)
        rhs = norm(term.right)
        if not lhs or not rhs:  # a factor that cancelled to 0
            return {}
        template = _template(len(next(iter(rhs))), inv_a, neg_ba, p)
        spent += len(lhs) * len(rhs) * len(template)  # dict updates, about 1.5 µs each
        check_work(spent * 3 // 2, what)
        out: dict[tuple[int, ...], int] = defaultdict(int)
        for wl, cl in lhs.items():
            for wr, cr in rhs.items():
                c = cl * cr
                for _, g, coeff in template:
                    out[wl + g(wr)] += c * coeff
        # words that cancel are dropped, except where ties need every first appearance
        return {w: c % p for w, c in out.items() if ties or c % p}

    out = norm(t)
    # ids follow the sort keys, so without ties the words sort as they are
    words = sorted(out, key=(lambda w: [keys[i] for i in w]) if ties else None)
    return LinearCombo(p, tuple(
        (tuple(map(atoms.__getitem__, w)), out[w]) for w in words if out[w]))


def normalize_in(A: Algebra, t: BracketTerm) -> LinearCombo:
    return normalize(t, A.alpha, A.beta, A.p)


def evaluate(
    t: Union[BracketTerm, LinearCombo], assignment: Mapping, A: Algebra
) -> np.ndarray:
    """Evaluate a term or combo under an atom assignment.

    Assignment keys may be Atom objects (per occurrence) or names (shared by
    every occurrence of that spelling).  A combo's words of one length are
    one stack, and its coefficients are applied by one exact linalg.matmul.
    """
    value = _assigned_vectors(assignment, A)
    if isinstance(t, LinearCombo):
        if t.p != A.p:
            raise InputError(f"combo is over F_{t.p}, algebra over F_{A.p}")
        words = t.words()
        # each distinct atom object in first-letter order, then every letter's row of V
        atoms = dict(zip(map(id, chain.from_iterable(words)), chain.from_iterable(words)))
        V = np.array([value(a) for a in atoms.values()], dtype=np.int64)
        row = dict(zip(atoms, range(len(atoms))))
        letters = np.fromiter(map(row.__getitem__, map(id, chain.from_iterable(words))), np.intp)
        lengths = np.array([len(w) for w in words], dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        coeffs = np.array([c % A.p for _, c in t.terms], dtype=np.int64)
        acc = A.zero()
        for k in np.unique(lengths):
            group = lengths == k
            first = starts[group]
            X = V[letters[first]]
            for j in range(1, k):
                X = _rowwise_products(A.table, X, V[letters[first + j]], A.p)
            acc = (acc + linalg.matmul(coeffs[group], X, A.p)) % A.p
        return acc

    def ev(term: BracketTerm) -> np.ndarray:
        if isinstance(term, Atom):
            return value(term)
        return _products(A.table, ev(term.left), ev(term.right), A.p)

    return ev(t)


def _assigned_vectors(assignment: Mapping, A: Algebra):
    """Atom -> its vector (keyed by the atom, else by its name), validated once."""
    cache: dict[Atom, np.ndarray] = {}

    def value(atom: Atom) -> np.ndarray:
        if atom not in cache:
            key = atom if atom in assignment else atom.name
            if key not in assignment:
                raise InputError(f"no assignment for atom {atom.name!r} (occurrence {atom.uid})")
            cache[atom] = linalg.as_vec(assignment[key], A.p, A.dim)
        return cache[atom]

    return value


def format_combo(combo: LinearCombo) -> str:
    """Canonical rendering: one `coeff*[a,b,c]` per line, words in sort order."""
    if not combo.terms:
        return "0"
    lines = []
    for word, coeff in combo.terms:
        body = ",".join(a.name for a in word)
        lines.append(f"{coeff}*[{body}]")
    return "\n".join(lines)
