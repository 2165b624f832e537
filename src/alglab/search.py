"""Corpus generation: enumerate or sample graded structure-constant tables
and filter them through the identity and selective-nilpotency checks.

The grading cuts the search space hard: a table entry [b_i, b_j] may only
touch basis vectors whose degree is deg(i) + deg(j) mod n, so the free
scalars are exactly the admissible (i, j, k) slots.  Candidates are indexed
by mixed-radix words over those slots (first slot most significant), which
makes the stream order deterministic and chunkable.

Slots, their table positions and the selective triple are set up once per
search call.  Each chunk of candidates is then one stack of tables: the
identity filter checks basis row 0 on the whole stack and the other rows
only on the tables that pass it; the selective check and both exact series
lengths run on the stack of identity survivors at once, never on one
survivor at a time.  Every table is zero off its slots, so each one is
graded by construction and no grading check runs.  The work budget bounds
every stage: what the spec fixes is charged up front, the rest on one
running total per call as it is made (_charge_spec, _Setup).  Random mode
replays random.Random(seed).randrange(p) in numpy, draw for draw.  Chunks
run in index order on the calling thread.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .algebra import Algebra, _identity_mask, _identity_steps
from .errors import WORK_BUDGET, FormatError, InputError, check_work
from .formats import LoadedAlgebra, _as_int, _known_fields, _need, to_document
from .frobenius import NQRTriple, validate_nqr
from .grading import Grading, _graded_entries
from .modular import check_prime
from .rdep import _selective_violations
from .series import _stacked_lengths

CHUNK = 4096
# a Survivor, its document and its output line: 30-55 µs measured at d <= 5
_SURVIVOR_STEPS = 128


@dataclass(frozen=True)
class SelectiveFilter:
    c: int
    q: int
    r: int


@dataclass(frozen=True)
class CorpusSpec:
    p: int
    n: int
    component_dims: tuple[int, ...]
    alpha: int = 1
    beta: int = 1
    mode: str = "exhaustive"          # "exhaustive" | "random"
    seed: Optional[int] = None
    samples: int = 0
    identity_filter: bool = True
    selective: Optional[SelectiveFilter] = None

    @property
    def dim(self) -> int:
        return sum(self.component_dims)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(
            i for i, d in enumerate(self.component_dims) for _ in range(d)
        )


def validate_spec(spec: CorpusSpec) -> CorpusSpec:
    check_prime(spec.p)
    if spec.n < 1:
        raise InputError(f"n must be >= 1, got {spec.n}")
    if len(spec.component_dims) != spec.n:
        raise InputError(
            f"component_dims has {len(spec.component_dims)} entries, expected n = {spec.n}"
        )
    if any(d < 0 for d in spec.component_dims):
        raise InputError("component dimensions must be >= 0")
    if not (0 < spec.alpha % spec.p):
        raise InputError("alpha must be nonzero mod p")
    if spec.mode == "random":
        if spec.seed is None:
            raise InputError("random mode requires an explicit seed")
        if spec.samples < 1:
            raise InputError("random mode requires samples >= 1")
    elif spec.mode != "exhaustive":
        raise InputError(f"unknown mode {spec.mode!r}")
    if spec.selective is not None:
        if spec.selective.c < 0:
            raise InputError("selective filter needs c >= 0")
        res = validate_nqr(spec.n, spec.selective.q, spec.selective.r)
        if not res.valid:
            raise InputError(
                f"selective filter triple (n={spec.n}, q={spec.selective.q}, "
                f"r={spec.selective.r}) is invalid (witness divisor {res.witness})"
            )
        if spec.component_dims[0] != 0:
            raise InputError("selective filter requires the zero component to vanish")
    return spec


def spec_from_document(doc: dict) -> CorpusSpec:
    """The spec a JSON document declares, read as strictly as an algebra file:
    unknown fields are refused, integers must be JSON integers and the
    identity flag a JSON boolean."""
    if not isinstance(doc, dict):
        raise FormatError("<document>", "top level must be an object")
    _known_fields(doc, "p n component_dims alpha beta mode seed samples filters", "")
    filters = _typed(doc.get("filters", {}), dict, "filters", "an object")
    _known_fields(filters, "identity selective", "filters")
    selective = None
    if filters.get("selective") is not None:
        s = _typed(filters["selective"], dict, "filters.selective", "an object")
        _known_fields(s, "c q r", "filters.selective")
        selective = SelectiveFilter(*(_as_int(_need(s, key, "filters.selective"),
                                              f"filters.selective.{key}") for key in "cqr"))
    seed = doc.get("seed")
    spec = CorpusSpec(
        p=_as_int(_need(doc, "p", ""), "p"),
        n=_as_int(_need(doc, "n", ""), "n"),
        component_dims=tuple(_as_int(d, f"component_dims[{i}]") for i, d in enumerate(
            _typed(_need(doc, "component_dims", ""), list, "component_dims", "a list"))),
        alpha=_as_int(doc.get("alpha", 1), "alpha"),
        beta=_as_int(doc.get("beta", 1), "beta"),
        mode=_typed(doc.get("mode", "exhaustive"), str, "mode", "a string"),
        seed=None if seed is None else _as_int(seed, "seed"),
        samples=_as_int(doc.get("samples", 0), "samples"),
        identity_filter=_typed(filters.get("identity", True), bool, "filters.identity",
                               "a boolean"),
        selective=selective,
    )
    return validate_spec(spec)


def _typed(value, kind: type, path: str, what: str):
    if not isinstance(value, kind):
        raise FormatError(path, f"expected {what}, got {value!r}")
    return value


def load_spec(path: Union[str, Path]) -> CorpusSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError("<document>", f"not valid JSON: {exc}") from exc
    return spec_from_document(doc)


def admissible_slots(spec: CorpusSpec) -> list[tuple[int, int, int]]:
    """Table slots (i, j, k) compatible with the grading, in lexicographic order."""
    return [tuple(slot) for slot in np.argwhere(_graded_entries(spec.degrees, spec.n)).tolist()]


def _charge_spec(spec: CorpusSpec) -> int:
    """Charge what the spec alone fixes, before anything of size d^3 is built:
    the candidates of exhaustive mode or the draws of random mode, row 0 of the
    identity on every candidate, and the d^3 entries of every table, 256 to a
    step.  Return the candidate count.  The slot count is the sum of
    dims[a] * dims[b] * dims[(a + b) mod n] over the nonzero components, about
    0.1 µs a pair."""
    dims, n, d = spec.component_dims, spec.n, spec.dim
    nonzero = [a for a in range(n) if dims[a]]
    check_work(len(nonzero) ** 2 // 8, f"counting the slots of {len(nonzero):,} nonzero components")
    nslots = sum(dims[a] * dims[b] * dims[(a + b) % n] for a in nonzero for b in nonzero)
    if spec.mode == "exhaustive":  # p^4096 is past any budget: no larger power is built
        total = spec.p ** min(nslots, 4096)
        check_work(total, f"an exhaustive search over {spec.p}^{nslots} candidates")
    else:  # one draw per slot of each sample
        total = spec.samples
        check_work(total * nslots, f"a random search of {total:,} samples over {nslots} slots")
    if spec.identity_filter:  # the later rows are charged on the row-0 survivors
        check_work(_identity_steps(total, 1, d),
                   f"row 0 of the identity on {total:,} candidates of dim {d}")
    check_work(total * d**3 // 256, f"building {total:,} tables of dim {d}")
    return total


def _exhaustive_block(p: int, nslots: int, start: int, stop: int) -> np.ndarray:
    """Mixed-radix digits of indices [start, stop) as a (stop-start, nslots) array."""
    out = np.zeros((stop - start, nslots), dtype=np.int64)
    idx = np.arange(start, stop, dtype=np.int64)
    for pos in range(nslots - 1, -1, -1):
        out[:, pos] = idx % p
        idx //= p
    return out


def _random_stream(spec: CorpusSpec, nslots: int) -> np.ndarray:
    """The whole seeded coefficient stream, one row per sample, drawn in order:
    random.Random(seed).randrange(p), replayed in numpy.

    For p < 2^31, randrange(p) takes the top k = p.bit_length() bits of one
    32-bit Mersenne Twister word and draws again while the value is >= p, so
    an MT19937 started from the same state yields the same values.
    """
    count = spec.samples * nslots
    state = random.Random(spec.seed).getstate()[1]
    words = np.random.MT19937()
    words.state = {"bit_generator": "MT19937",
                   "state": {"key": np.asarray(state[:-1], dtype=np.uint32), "pos": state[-1]}}
    k = spec.p.bit_length()
    parts, have = [np.zeros(0, dtype=np.uint64)], 0
    while have < count:  # each word is accepted with probability p / 2^k > 1/2
        draws = words.random_raw(((count - have) << k) // spec.p + 64) >> np.uint64(32 - k)
        draws = draws[draws < spec.p]
        parts.append(draws)
        have += draws.size
    return np.concatenate(parts)[:count].astype(np.int64).reshape(spec.samples, nslots)


@dataclass(frozen=True)
class Survivor:
    algebra: Algebra
    grading: Grading
    d: int
    derived_length: Optional[int]
    nilpotency_class: Optional[int]
    index: int  # position in the candidate stream

    def document(self) -> dict:
        doc = to_document(LoadedAlgebra(self.algebra, self.grading))
        doc["meta"] = {
            "expected": {
                "derived_length": self.derived_length,
                "nilpotency_class": self.nilpotency_class,
            }
        }
        return doc


@dataclass(frozen=True)
class BucketSummary:
    n: int
    q: Optional[int]
    r: Optional[int]
    c: Optional[int]
    d: int
    count: int
    max_derived_length: Optional[int]
    max_nilpotency_class: Optional[int]
    nonsolvable: int
    nonnilpotent: int


@dataclass(frozen=True)
class SearchResult:
    spec: CorpusSpec
    candidates: int
    survivors: tuple[Survivor, ...]
    summary: tuple[BucketSummary, ...]


@dataclass
class _Setup:
    """What every chunk of one search call shares, built once per call, and the
    call's running total past its up-front charges: rows 1..d-1 of the
    identity on each table that passes row 0, and per survivor its two series
    (at most 2(d + 1) products of d^4 multiply-adds, at the identity's rate),
    its document's d^3 entries and _SURVIVOR_STEPS.  The total follows from
    the two counts alone, so whether a call passes the budget does not depend
    on its chunks; the printed estimate may."""

    spec: CorpusSpec
    slot_index: np.ndarray            # flat table position of each slot
    nqr: Optional[NQRTriple]
    grading: Grading
    tables: int = 0                   # past row 0 of the identity
    survivors: int = 0

    def charge(self, tables: int = 0, survivors: int = 0) -> None:
        d = self.spec.dim
        self.tables += tables
        self.survivors += survivors
        steps = (_identity_steps(self.tables, max(d - 1, 0), d)
                 + _identity_steps(self.survivors, 2 * (d + 1), d)
                 + self.survivors * (_SURVIVOR_STEPS + d**3 // 64))
        check_work(steps, f"the work past row 0 of a dim-{d} search ({self.tables:,} tables "
                          f"past row 0, {self.survivors:,} survivors)")


def _setup(spec: CorpusSpec, slots) -> _Setup:
    d = spec.dim
    slot_index = np.asarray([(i * d + j) * d + k for i, j, k in slots], dtype=np.intp)
    nqr = None
    if spec.selective is not None:
        nqr = NQRTriple(spec.n, spec.selective.q, spec.selective.r)
    return _Setup(spec, slot_index, nqr, Grading(spec.n, spec.degrees))


def _survivors_of_chunk(setup: _Setup, start: int, coeffs: np.ndarray) -> list[Survivor]:
    """Survivors among the candidates start, start+1, ... with coefficient rows
    coeffs.  Every filter and both series lengths run on the whole stack of
    tables at once."""
    spec = setup.spec
    p, d, B = spec.p, spec.dim, coeffs.shape[0]
    alpha, beta = spec.alpha % p, spec.beta % p
    flat = np.zeros((B, d**3), dtype=np.int64)
    flat[:, setup.slot_index] = coeffs
    tables = flat.reshape(B, d, d, d)
    if spec.identity_filter:
        index = np.flatnonzero(_identity_mask(tables, p, alpha, beta, charge=setup.charge))
    else:
        index = np.arange(B)
    degrees = setup.grading.degrees
    if setup.nqr is not None and index.size:
        failing = _selective_violations(tables[index], p, degrees, spec.selective.c,
                                        setup.nqr)[2]
        index = index[[not f for f in failing]]
    setup.charge(survivors=index.size)
    kept = tables[index]
    derived, classes = _stacked_lengths(kept, p)
    components = len(set(degrees))
    return [
        Survivor(
            Algebra(p, d, kept[pos].copy(), alpha, beta),
            setup.grading,
            d=components,
            derived_length=derived[pos],
            nilpotency_class=classes[pos],
            index=start + int(local),
        )
        for pos, local in enumerate(index.tolist())
    ]


def search(spec: CorpusSpec) -> SearchResult:
    """Run the full pipeline and collect survivors plus per-bucket maxima."""
    validate_spec(spec)
    total = _charge_spec(spec)
    slots = admissible_slots(spec)
    # a chunk's row 0 is chunk * dim^4 multiply-adds: keep each chunk within the budget
    chunk = min(CHUNK, max(1, WORK_BUDGET // max(spec.dim, 1) ** 4))
    stream = _random_stream(spec, len(slots)) if spec.mode == "random" else None
    setup = _setup(spec, slots)
    survivors: list[Survivor] = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        coeffs = (stream[start:stop] if stream is not None
                  else _exhaustive_block(spec.p, len(slots), start, stop))
        survivors += _survivors_of_chunk(setup, start, coeffs)
    return SearchResult(spec, total, tuple(survivors), _summarize(spec, survivors))


def _summarize(spec: CorpusSpec, survivors) -> tuple[BucketSummary, ...]:
    """The one bucket of a search's survivors, which share n, (q, r, c) and d,
    or none when there are no survivors."""
    if not survivors:
        return ()
    sel = spec.selective
    dls = [s.derived_length for s in survivors]
    ncs = [s.nilpotency_class for s in survivors]
    finite_dl = [x for x in dls if x is not None]
    finite_nc = [x for x in ncs if x is not None]
    return (BucketSummary(
        n=spec.n, q=sel and sel.q, r=sel and sel.r, c=sel and sel.c, d=survivors[0].d,
        count=len(survivors),
        max_derived_length=max(finite_dl) if finite_dl else None,
        max_nilpotency_class=max(finite_nc) if finite_nc else None,
        nonsolvable=len(dls) - len(finite_dl),
        nonnilpotent=len(ncs) - len(finite_nc),
    ),)
