"""File-level verification drivers with a stable exit-code contract.

Exit codes: 0 = all requested checks pass, 1 = a genuine violation (a
counterexample to a statement the toolkit certifies; never expected on
sound inputs), 2 = input or hypothesis error (missing blocks, falsified
hypotheses).  Under "all", checks whose blocks are absent or whose
hypotheses fail are reported as skipped and do not affect the exit code;
requesting such a check explicitly yields exit 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import rdep
from .algebra import check_identity_uniform
from .errors import AlgLabError, HypothesisError, InputError
from .formats import LoadedAlgebra
from .frobenius import NQRTriple, _untwisted_components, eigen_grading
from .grading import check_grading, component_count, nontrivial_components
from .rdep import d_set, index_split_check, is_r_independent
from .series import derived_length, kreknin_shalev_bound, nilpotency_class

DSET_N_CAP = 200          # file-level D-set sweeps stay desk-scale
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


def _check_identity(loaded: LoadedAlgebra) -> CheckResult:
    rep = check_identity_uniform(loaded.algebra)
    if rep.ok:
        A = loaded.algebra
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


def _check_grading(loaded: LoadedAlgebra) -> CheckResult:
    if loaded.grading is None:
        return CheckResult("grading", Status.SKIPPED, "no grading block")
    rep = check_grading(loaded.algebra, loaded.grading)
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


def _check_kreknin(loaded: LoadedAlgebra) -> CheckResult:
    name = "kreknin"
    if loaded.grading is None:
        return CheckResult(name, Status.SKIPPED, "no grading block")
    A, G = loaded.algebra, loaded.grading
    if not check_identity_uniform(A).ok:
        return CheckResult(name, Status.HYPOTHESIS, "product identity fails")
    if not check_grading(A, G).ok:
        return CheckResult(name, Status.HYPOTHESIS, "grading law fails")
    if 0 in nontrivial_components(A, G):
        return CheckResult(name, Status.HYPOTHESIS, "L_0 must be zero")
    d = component_count(A, G)
    bound = kreknin_shalev_bound(d)
    dl = derived_length(A)
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


def _action_triple(loaded: LoadedAlgebra) -> Optional[NQRTriple]:
    return loaded.action.triple if loaded.action is not None else None


def _check_dset_bound(loaded: LoadedAlgebra) -> CheckResult:
    name = "dset-bound"
    nqr = _action_triple(loaded)
    if nqr is None:
        return CheckResult(name, Status.SKIPPED, "no action block")
    if nqr.n > DSET_N_CAP:
        return CheckResult(name, Status.SKIPPED, f"n = {nqr.n} beyond the sweep cap")
    checked = 0
    for k in range(1, DSET_PREFIX_CAP + 1):
        if nqr.q ** (k + 1) >= nqr.n - 1:
            continue  # bound is vacuous: |D| <= n-1 <= q^(k+1)
        for prefix in _sorted_prefixes(nqr.n, k):
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


def _sorted_prefixes(n: int, k: int):
    """Nondecreasing tuples over 1..n-1; dependence is permutation-invariant."""
    from itertools import combinations_with_replacement

    return combinations_with_replacement(range(1, n), k)


def _check_index_split(loaded: LoadedAlgebra) -> CheckResult:
    name = "index-split"
    n = None
    if loaded.grading is not None:
        n = loaded.grading.n
    elif loaded.action is not None:
        n = loaded.action.triple.n
    if n is None or n < 2:
        return CheckResult(name, Status.SKIPPED, "no modulus n >= 2 available")
    rep = index_split_check(n)
    if rep.ok:
        return CheckResult(
            name, Status.PASS,
            f"wraparound sums split consistently on all {rep.checked} pairs mod {n}",
        )
    return CheckResult(
        name, Status.VIOLATION, f"failures at {rep.failures[:3]}",
    )


def _check_frobenius(loaded: LoadedAlgebra) -> CheckResult:
    name = "frobenius"
    if loaded.action is None:
        return CheckResult(name, Status.SKIPPED, "no action block")
    A, fd = loaded.algebra, loaded.action
    try:
        egr = eigen_grading(A, fd.phi, fd.triple.n)
    except AlgLabError as exc:
        return CheckResult(name, Status.VIOLATION, f"eigenspace decomposition failed: {exc}")
    # check the permutation law on the eigenspaces, in original coordinates
    failures = _untwisted_components(egr.components, fd.h, fd.triple.r)
    if failures:
        return CheckResult(
            name, Status.VIOLATION,
            f"h does not map components {failures} to their twisted targets",
        )
    zero_rank = egr.components[0].rank
    return CheckResult(
        name, Status.PASS,
        f"eigen-grading with omega = {egr.omega}; fixed space rank {zero_rank}; "
        f"h permutes components by i -> {fd.triple.r}*i mod {fd.triple.n}",
        {"omega": egr.omega, "fixed_rank": zero_rank},
    )


def _check_selective_nilpotency(loaded: LoadedAlgebra, c: Optional[int]) -> CheckResult:
    name = "selective-nilpotency"
    if loaded.grading is None or loaded.action is None:
        return CheckResult(name, Status.SKIPPED, "needs grading and action blocks")
    if c is None:
        return CheckResult(name, Status.SKIPPED, "needs an explicit c (--c)")
    A, G, nqr = loaded.algebra, loaded.grading, loaded.action.triple
    if not check_identity_uniform(A).ok:
        return CheckResult(name, Status.HYPOTHESIS, "product identity fails")
    try:
        rep = rdep.selective_check(A, G, c, nqr)
    except (HypothesisError, InputError) as exc:
        return CheckResult(name, Status.HYPOTHESIS, str(exc))
    if not rep.ok:
        v = rep.violations[0]
        return CheckResult(
            name, Status.HYPOTHESIS,
            f"selective {c}-nilpotency fails at degree tuple {v.degrees}; "
            "the conclusion is not claimed for this algebra",
        )
    nc = nilpotency_class(A)
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


def _check_expected(loaded: LoadedAlgebra) -> CheckResult:
    name = "expected"
    if loaded.meta is None or loaded.meta.expected is None:
        return CheckResult(name, Status.SKIPPED, "no expected stats in meta")
    exp = loaded.meta.expected
    A = loaded.algebra
    got_dl = derived_length(A)
    got_nc = nilpotency_class(A)
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


_CHECKS: dict[str, Callable[[LoadedAlgebra, Optional[int]], CheckResult]] = {
    "identity": lambda l, c: _check_identity(l),
    "grading": lambda l, c: _check_grading(l),
    "kreknin": lambda l, c: _check_kreknin(l),
    "dset-bound": lambda l, c: _check_dset_bound(l),
    "index-split": lambda l, c: _check_index_split(l),
    "frobenius": lambda l, c: _check_frobenius(l),
    "selective-nilpotency": lambda l, c: _check_selective_nilpotency(l, c),
    "expected": lambda l, c: _check_expected(l),
}

ALL_CHECKS = tuple(_CHECKS)


def verify(loaded: LoadedAlgebra, lemma_id: str, c: Optional[int] = None) -> VerifyReport:
    if lemma_id == "all":
        results = tuple(_CHECKS[name](loaded, c) for name in ALL_CHECKS)
        return VerifyReport(results, "all")
    if lemma_id not in _CHECKS:
        raise AlgLabError(
            f"unknown verification {lemma_id!r}; expected one of "
            f"{', '.join(ALL_CHECKS)} or 'all'"
        )
    return VerifyReport((_CHECKS[lemma_id](loaded, c),), lemma_id)
