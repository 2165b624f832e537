"""Free bracket terms: parsing, left-normalization, and evaluation.

A term is a binary bracketing tree over atoms.  Because alpha is invertible,
the defining identity can be read as a rewrite rule

    [a, [b, c]]  ->  (1/alpha) [[a, b], c]  -  (beta/alpha) [[a, c], b]

which turns any bracketing into a linear combination of left-normalized
words [x1, x2, ..., xs] = [...[[x1,x2],x3]...,xs] of the same length in the
same atoms.  Soundness is contractual through evaluation: evaluating a term
and its normal form in any algebra satisfying the identity with the same
(alpha, beta) gives the same element.

Atoms are positional: every occurrence in the source text is its own
variable, even when spelled identically.  A degree suffix ("x_3") is a label
shared by occurrences of the same spelling; it never merges them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from . import linalg
from .algebra import Algebra, _products
from .errors import InputError, ParseError


@dataclass(frozen=True)
class Atom:
    name: str
    degree: Optional[int] = None
    uid: int = 0  # occurrence index within the parsed term

    def __post_init__(self):
        # atoms are dict keys in every rewrite step; cache the hash
        object.__setattr__(self, "_hash", hash((self.name, self.degree, self.uid)))

    def __hash__(self) -> int:
        return self._hash

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

    def as_dict(self) -> dict[Word, int]:
        return dict(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def words(self) -> list[Word]:
        return [w for w, _ in self.terms]


def _combo(p: int, data: Mapping[Word, int]) -> LinearCombo:
    items = [(w, c % p) for w, c in data.items() if c % p]
    items.sort(key=lambda wc: tuple(a.sort_key() for a in wc[0]))
    return LinearCombo(p, tuple(items))


def normalize(t: BracketTerm, alpha: int, beta: int, p: int) -> LinearCombo:
    """Rewrite t into a combination of left-normalized words.

    Works innermost-first, left branch first: both children are normalized
    to word combinations, then each word-on-word bracket [U, W] is flattened
    by peeling the last letter of W, which strictly shortens the right
    factor and so terminates.  Requires alpha invertible mod p.
    """
    from .modular import check_prime

    check_prime(p)
    alpha %= p
    beta %= p
    if alpha == 0:
        raise InputError("alpha must be nonzero mod p")
    inv_a = linalg.inv_scalar(alpha, p)
    neg_ba = (-beta * inv_a) % p

    def norm(term: BracketTerm) -> dict[Word, int]:
        if isinstance(term, Atom):
            return {(term,): 1}
        lhs = norm(term.left)
        rhs = norm(term.right)
        out: dict[Word, int] = {}
        for wl, cl in lhs.items():
            for wr, cr in rhs.items():
                for word, coeff in bracket_words(wl, wr).items():
                    out[word] = (out.get(word, 0) + cl * cr * coeff) % p
        return out

    def bracket_words(u: Word, w: Word) -> dict[Word, int]:
        # [U, w1] for a single letter is just an append
        if len(w) == 1:
            return {u + w: 1}
        head, last = w[:-1], w[-1:]
        # [U, [H, x]] = 1/alpha [[U, H], x] - beta/alpha [[U, x], H]
        out: dict[Word, int] = {}
        for word, coeff in bracket_words(u, head).items():
            out[word + last] = (out.get(word + last, 0) + inv_a * coeff) % p
        for word, coeff in bracket_words(u + last, head).items():
            out[word] = (out.get(word, 0) + neg_ba * coeff) % p
        return out

    return _combo(p, norm(t))


def normalize_in(A: Algebra, t: BracketTerm) -> LinearCombo:
    return normalize(t, A.alpha, A.beta, A.p)


def _lookup(assignment: Mapping, atom: Atom):
    if atom in assignment:
        return assignment[atom]
    if atom.name in assignment:
        return assignment[atom.name]
    raise InputError(f"no assignment for atom {atom.name!r} (occurrence {atom.uid})")


def evaluate(
    t: Union[BracketTerm, LinearCombo], assignment: Mapping, A: Algebra
) -> np.ndarray:
    """Evaluate a term or combo under an atom assignment.

    Assignment keys may be Atom objects (per occurrence) or names (shared by
    every occurrence of that spelling).
    """
    value = _assigned_vectors(assignment, A)
    if isinstance(t, LinearCombo):
        if t.p != A.p:
            raise InputError(f"combo is over F_{t.p}, algebra over F_{A.p}")
        acc = A.zero()
        for word, coeff in t.terms:
            acc = (acc + coeff * _eval_word(word, value, A)) % A.p
        return acc

    def ev(term: BracketTerm) -> np.ndarray:
        if isinstance(term, Atom):
            return value(term)
        return _products(A.table, ev(term.left), ev(term.right), A.p)

    return ev(t)


def _assigned_vectors(assignment: Mapping, A: Algebra):
    """Atom -> its assigned vector, validated once per atom."""
    cache: dict[Atom, np.ndarray] = {}

    def value(atom: Atom) -> np.ndarray:
        if atom not in cache:
            cache[atom] = linalg.as_vec(_lookup(assignment, atom), A.p, A.dim)
        return cache[atom]

    return value


def _eval_word(word: Word, value, A: Algebra) -> np.ndarray:
    acc = value(word[0])
    for atom in word[1:]:
        acc = _products(A.table, acc, value(atom), A.p)
    return acc


def format_combo(combo: LinearCombo) -> str:
    """Canonical rendering: one `coeff*[a,b,c]` per line, words in sort order."""
    if not combo.terms:
        return "0"
    lines = []
    for word, coeff in combo.terms:
        body = ",".join(a.name for a in word)
        lines.append(f"{coeff}*[{body}]")
    return "\n".join(lines)
