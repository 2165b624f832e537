"""File-level verification drivers with a stable exit-code contract.

Exit codes: 0 = all requested checks pass, 1 = a genuine violation (a
counterexample to a statement the toolkit certifies; never expected on
sound inputs), 2 = input or hypothesis error (missing blocks, falsified
hypotheses).  Under "all", checks whose blocks are absent or whose
hypotheses fail are reported as skipped and do not affect the exit code;
requesting such a check explicitly yields exit 2.  A certified bound that
fails inside a check (InternalInvariantError) is that check's violation, so
under "all" the other checks still report.  The checks of one call share one
computation of each report (identity, grading, both series), but
rdep.selective_check validates the grading again.  The frobenius check
computes nothing of the n eigenspaces: the loader has proved what it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations_with_replacement
from math import comb
from typing import Optional

import numpy as np

from . import linalg, rdep
from .algebra import check_identity_uniform
from .errors import AlgLabError, HypothesisError, InputError, InternalInvariantError, check_work
from .formats import LoadedAlgebra
from .grading import check_grading, component_count, nontrivial_components
from .modular import element_of_order
from .rdep import d_set, d_set_work, index_split_check, is_r_independent
from .series import derived_length, kreknin_shalev_bound, nilpotency_class

DSET_PREFIX_CAP = 2


class Status(str, Enum):
    PASS = "pass"
    VIOLATION = "violation"
    HYPOTHESIS = "hypothesis-error"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: Status
    message: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    results: tuple[CheckResult, ...]
    mode: str

    @property
    def exit_code(self) -> int:
        if any(r.status == Status.VIOLATION for r in self.results):
            return 1
        if self.mode != "all" and any(
            r.status in (Status.HYPOTHESIS, Status.SKIPPED) for r in self.results
        ):
            return 2
        return 0


@dataclass
class _Facts:
    """A loaded file and the reports its checks share, keyed by (fn, *args):
    facts(fn, *args) runs fn(algebra, *args) once per distinct key."""

    loaded: LoadedAlgebra
    reports: dict = field(default_factory=dict)

    def __call__(self, fn, *args):
        if (fn, *args) not in self.reports:
            self.reports[(fn, *args)] = fn(self.loaded.algebra, *args)
        return self.reports[(fn, *args)]


def _check_identity(facts: _Facts, c: Optional[int]) -> CheckResult:
    rep = facts(check_identity_uniform)
    if rep.ok:
        A = facts.loaded.algebra
        return CheckResult(
            "identity", Status.PASS,
            f"product identity holds with (alpha, beta) = ({A.alpha}, {A.beta}) "
            f"on all {rep.checked} basis triples",
        )
    first = rep.failures[0]
    return CheckResult(
        "identity", Status.VIOLATION,
        f"{len(rep.failures)} failing basis triples; first at {first.triple}",
        {"failures": len(rep.failures), "first_triple": first.triple},
    )


def _check_grading(facts: _Facts, c: Optional[int]) -> CheckResult:
    if facts.loaded.grading is None:
        return CheckResult("grading", Status.SKIPPED, "no grading block")
    rep = facts(check_grading, facts.loaded.grading)
    if rep.ok:
        return CheckResult(
            "grading", Status.PASS,
            f"multiplication respects the grading on all {rep.checked} basis pairs",
        )
    v = rep.violations[0]
    return CheckResult(
        "grading", Status.VIOLATION,
        f"{len(rep.violations)} violating pairs; first at {v.pair} "
        f"(expected degree {v.expected_degree})",
    )


def _check_kreknin(facts: _Facts, c: Optional[int]) -> CheckResult:
    name = "kreknin"
    A, G = facts.loaded.algebra, facts.loaded.grading
    if G is None:
        return CheckResult(name, Status.SKIPPED, "no grading block")
    if not facts(check_identity_uniform).ok:
        return CheckResult(name, Status.HYPOTHESIS, "product identity fails")
    if not facts(check_grading, G).ok:
        return CheckResult(name, Status.HYPOTHESIS, "grading law fails")
    if 0 in nontrivial_components(A, G):
        return CheckResult(name, Status.HYPOTHESIS, "L_0 must be zero")
    d = component_count(A, G)
    bound = kreknin_shalev_bound(d)
    dl = facts(derived_length)
    if dl is not None and dl <= bound:
        return CheckResult(
            name, Status.PASS,
            f"derived length {dl} <= 2^{d} - 1 = {bound}",
            {"derived_length": dl, "d": d, "bound": bound},
        )
    got = "not solvable" if dl is None else f"derived length {dl}"
    return CheckResult(
        name, Status.VIOLATION, f"{got} exceeds 2^{d} - 1 = {bound}",
        {"derived_length": dl, "d": d, "bound": bound},
    )


def _check_dset_bound(facts: _Facts, c: Optional[int]) -> CheckResult:
    name = "dset-bound"
    if facts.loaded.action is None:
        return CheckResult(name, Status.SKIPPED, "no action block")
    nqr = facts.loaded.action.triple
    # the bound is vacuous where |D| <= n-1 <= q^(k+1)
    lengths = [k for k in range(1, DSET_PREFIX_CAP + 1) if nqr.q ** (k + 1) < nqr.n - 1]
    try:  # the sweep tests each of the comb(n+k-2, k) prefixes of length k
        check_work(sum(comb(nqr.n + k - 2, k) * d_set_work(nqr, k) for k in lengths),
                   f"the D-set sweep mod {nqr.n} at q = {nqr.q}")
    except InputError as exc:
        return CheckResult(name, Status.SKIPPED, str(exc))
    checked = 0
    for k in lengths:
        # nondecreasing prefixes suffice: dependence is permutation-invariant
        for prefix in combinations_with_replacement(range(1, nqr.n), k):
            if not is_r_independent(nqr, prefix):
                continue
            d_set(nqr, prefix)  # raises InternalInvariantError on violation
            checked += 1
    return CheckResult(
        name, Status.PASS,
        f"dependence-set bound holds on {checked} independent prefixes "
        f"(lengths 1..{DSET_PREFIX_CAP})",
        {"prefixes": checked},
    )


def _check_index_split(facts: _Facts, c: Optional[int]) -> CheckResult:
    name = "index-split"
    n = None
    if facts.loaded.grading is not None:
        n = facts.loaded.grading.n
    elif facts.loaded.action is not None:
        n = facts.loaded.action.triple.n
    if n is None or n < 2:
        return CheckResult(name, Status.SKIPPED, "no modulus n >= 2 available")
    try:
        rep = index_split_check(n)
    except InputError as exc:
        return CheckResult(name, Status.SKIPPED, str(exc))
    if rep.ok:
        return CheckResult(
            name, Status.PASS,
            f"wraparound sums split consistently on all {rep.checked} pairs mod {n}",
        )
    return CheckResult(
        name, Status.VIOLATION, f"failures at {rep.failures[:3]}",
    )


def _check_frobenius(facts: _Facts, c: Optional[int]) -> CheckResult:
    """The eigen-grading of phi and the permutation of its components by h,
    read off what frobenius_data proved at load: only omega and the rank of
    ker(phi - 1) are computed.

    - phi is diagonalizable: phi^n = 1 and n | p - 1 give x^n - 1 n distinct
      roots in F_p, so L is the sum of the L_i = ker(phi - omega^i).
    - phi h = h phi^r gives h L_i <= L_{r*i mod n}.
    - i -> r*i is a permutation of Z/n (NQRTriple guarantees gcd(r, n) = 1)
      and h is invertible, so h maps each L_i onto L_{r*i mod n}.
    """
    name = "frobenius"
    A, fd = facts.loaded.algebra, facts.loaded.action
    if fd is None:
        return CheckResult(name, Status.SKIPPED, "no action block")
    omega = element_of_order(A.p, fd.triple.n)
    zero_rank = linalg.nullspace((fd.phi - np.eye(A.dim, dtype=np.int64)) % A.p, A.p).rank
    return CheckResult(
        name, Status.PASS,
        f"eigen-grading with omega = {omega}; fixed space rank {zero_rank}; "
        f"h permutes components by i -> {fd.triple.r}*i mod {fd.triple.n}",
        {"omega": omega, "fixed_rank": zero_rank},
    )


def _check_selective_nilpotency(facts: _Facts, c: Optional[int]) -> CheckResult:
    name = "selective-nilpotency"
    A, G, fd = facts.loaded.algebra, facts.loaded.grading, facts.loaded.action
    if G is None or fd is None:
        return CheckResult(name, Status.SKIPPED, "needs grading and action blocks")
    if c is None:
        return CheckResult(name, Status.SKIPPED, "needs an explicit c (--c)")
    if not facts(check_identity_uniform).ok:
        return CheckResult(name, Status.HYPOTHESIS, "product identity fails")
    try:
        rep = rdep.selective_check(A, G, c, fd.triple)
    except (HypothesisError, InputError) as exc:
        return CheckResult(name, Status.HYPOTHESIS, str(exc))
    if not rep.ok:
        v = rep.violations[0]
        return CheckResult(
            name, Status.HYPOTHESIS,
            f"selective {c}-nilpotency fails at degree tuple {v.degrees}; "
            "the conclusion is not claimed for this algebra",
        )
    nc = facts(nilpotency_class)
    if nc is None:
        return CheckResult(
            name, Status.VIOLATION,
            f"selectively {c}-nilpotent but not nilpotent",
            {"c": c},
        )
    return CheckResult(
        name, Status.PASS,
        f"selectively {c}-nilpotent and nilpotent of class {nc}",
        {"c": c, "nilpotency_class": nc},
    )


def _check_expected(facts: _Facts, c: Optional[int]) -> CheckResult:
    name = "expected"
    meta = facts.loaded.meta
    if meta is None or meta.expected is None:
        return CheckResult(name, Status.SKIPPED, "no expected stats in meta")
    exp = meta.expected
    got_dl = facts(derived_length)
    got_nc = facts(nilpotency_class)
    mismatches = []
    if got_dl != exp.derived_length:
        mismatches.append(f"derived_length {got_dl} != expected {exp.derived_length}")
    if got_nc != exp.nilpotency_class:
        mismatches.append(f"nilpotency_class {got_nc} != expected {exp.nilpotency_class}")
    if mismatches:
        return CheckResult(name, Status.VIOLATION, "; ".join(mismatches))
    return CheckResult(
        name, Status.PASS,
        f"derived_length = {got_dl}, nilpotency_class = {got_nc} as recorded",
    )


_CHECKS = {
    "identity": _check_identity,
    "grading": _check_grading,
    "kreknin": _check_kreknin,
    "dset-bound": _check_dset_bound,
    "index-split": _check_index_split,
    "frobenius": _check_frobenius,
    "selective-nilpotency": _check_selective_nilpotency,
    "expected": _check_expected,
}

ALL_CHECKS = tuple(_CHECKS)


def verify(loaded: LoadedAlgebra, lemma_id: str, c: Optional[int] = None) -> VerifyReport:
    if lemma_id != "all" and lemma_id not in _CHECKS:
        raise AlgLabError(
            f"unknown verification {lemma_id!r}; expected one of "
            f"{', '.join(ALL_CHECKS)} or 'all'"
        )
    facts = _Facts(loaded)
    results = []
    for name in ALL_CHECKS if lemma_id == "all" else (lemma_id,):
        try:
            results.append(_CHECKS[name](facts, c))
        except InternalInvariantError as exc:
            results.append(CheckResult(name, Status.VIOLATION, str(exc)))
    return VerifyReport(tuple(results), lemma_id)
