import json
import random

import numpy as np
import pytest

from alglab import AlgLabError
from alglab.formats import load, loads
from alglab.verify import Status, verify
from conftest import FIXTURES, FIXTURE_FILES, untwisted_components


def result_map(report):
    return {r.check: r for r in report.results}


def test_all_fixtures_pass_verify_all():
    for name in FIXTURE_FILES:
        report = verify(load(FIXTURES / name), "all")
        assert report.exit_code == 0, (name, [vars(r) for r in report.results])
        statuses = {r.status for r in report.results}
        assert Status.VIOLATION not in statuses


def test_kreknin_pass_on_leibniz():
    report = verify(load(FIXTURES / "leibniz2_f3.json"), "kreknin")
    (res,) = report.results
    assert res.status == Status.PASS
    assert res.details == {"derived_length": 2, "d": 2, "bound": 3}
    assert report.exit_code == 0


def test_kreknin_hypothesis_error_on_nonzero_L0():
    # Heisenberg's mod-2 grading has z in degree 0
    report = verify(load(FIXTURES / "heisenberg_f5.json"), "kreknin")
    (res,) = report.results
    assert res.status == Status.HYPOTHESIS
    assert "L_0" in res.message
    assert report.exit_code == 2


def test_kreknin_skipped_without_grading():
    doc = {"p": 3, "dim": 1, "alpha": 1, "beta": 1, "table": []}
    report = verify(loads(json.dumps(doc)), "kreknin")
    assert report.results[0].status == Status.SKIPPED
    assert report.exit_code == 2


def test_identity_violation_gives_exit_1():
    doc = {
        "p": 3, "dim": 2, "alpha": 1, "beta": 2,
        "table": [[1, 1, 2, 1], [1, 2, 1, 1]],
    }
    report = verify(loads(json.dumps(doc)), "identity")
    assert report.results[0].status == Status.VIOLATION
    assert report.exit_code == 1


def test_violation_under_all_still_exit_1():
    doc = {
        "p": 3, "dim": 2, "alpha": 1, "beta": 2,
        "table": [[1, 1, 2, 1], [1, 2, 1, 1]],
    }
    report = verify(loads(json.dumps(doc)), "all")
    assert report.exit_code == 1


def test_hypothesis_under_all_does_not_fail():
    # heisenberg: kreknin hypothesis fails (L_0 != 0) but `all` stays green
    report = verify(load(FIXTURES / "heisenberg_f5.json"), "all")
    m = result_map(report)
    assert m["kreknin"].status == Status.HYPOTHESIS
    assert report.exit_code == 0


def test_frobenius_check_on_action_fixture():
    report = verify(load(FIXTURES / "abelian2_f7_action.json"), "frobenius")
    (res,) = report.results
    assert res.status == Status.PASS
    assert res.details["omega"] == 2
    assert res.details["fixed_rank"] == 0
    assert report.exit_code == 0


def test_frobenius_skipped_without_action():
    report = verify(load(FIXTURES / "leibniz2_f3.json"), "frobenius")
    assert report.results[0].status == Status.SKIPPED
    assert report.exit_code == 2


def test_selective_nilpotency_requires_c():
    loaded = load(FIXTURES / "abelian2_f7_action.json")
    report = verify(loaded, "selective-nilpotency")
    assert report.results[0].status == Status.SKIPPED
    report = verify(loaded, "selective-nilpotency", c=1)
    (res,) = report.results
    assert res.status == Status.PASS
    assert res.details == {"c": 1, "nilpotency_class": 1}


def test_loader_rejects_non_automorphism_h():
    # phi = diag(2,4) is an automorphism of the Leibniz table, but the swap
    # is not ([e2,e2] = 0 while swap([e1,e1]) = e1): the action block dies
    doc = {
        "p": 7, "dim": 2, "alpha": 1, "beta": 1,
        "table": [[1, 1, 2, 1]],
        "grading": {"n": 3, "degrees": [1, 2]},
        "action": {"n": 3, "q": 2, "r": 2,
                   "phi": [[2, 0], [0, 4]],
                   "h": [[0, 1], [1, 0]]},
    }
    from alglab import FormatError

    with pytest.raises(FormatError):
        loads(json.dumps(doc))


def test_selective_nilpotency_hypothesis_failure_via_constructed_data():
    from alglab import Grading, NQRTriple
    from alglab.formats import LoadedAlgebra
    from alglab.frobenius import FrobeniusData
    from conftest import leibniz2

    A = leibniz2(7)
    fd = FrobeniusData(NQRTriple(3, 2, 2), np.diag([2, 4]), np.eye(2, dtype=np.int64))
    loaded = LoadedAlgebra(A, Grading(3, (1, 2)), fd)
    report = verify(loaded, "selective-nilpotency", c=1)
    (res,) = report.results
    assert res.status == Status.HYPOTHESIS
    assert report.exit_code == 2


def test_expected_stats_checked():
    report = verify(load(FIXTURES / "mat2x2_f2.json"), "expected")
    (res,) = report.results
    assert res.status == Status.PASS  # not solvable, not nilpotent, as recorded

    doc = json.loads((FIXTURES / "leibniz2_f3.json").read_text())
    doc["meta"]["expected"]["nilpotency_class"] = 5
    report = verify(loads(json.dumps(doc)), "expected")
    assert report.results[0].status == Status.VIOLATION


def test_dset_bound_vacuous_for_small_n():
    report = verify(load(FIXTURES / "abelian2_f7_action.json"), "dset-bound")
    (res,) = report.results
    assert res.status == Status.PASS
    assert res.details["prefixes"] == 0  # q^2 = 4 >= n - 1 = 2: all vacuous


def test_index_split_runs_with_grading_modulus():
    report = verify(load(FIXTURES / "heisenberg_f5.json"), "index-split")
    assert report.results[0].status == Status.PASS


def test_unknown_lemma_id():
    with pytest.raises(AlgLabError):
        verify(load(FIXTURES / "leibniz2_f3.json"), "does-not-exist")


def _twisted_heisenberg():
    """Two copies of the Heisenberg algebra over F_7, copy s graded by
    2^s * (1, 1, 2) mod 3; phi acts by 2^degree and h swaps the copies, so
    h^-1 phi h = phi^2."""
    degrees = [1, 1, 2, 2, 2, 1]
    doc = {
        "p": 7, "dim": 6, "alpha": 1, "beta": 1,
        "table": [[1, 2, 3, 1], [2, 1, 3, 6], [4, 5, 6, 1], [5, 4, 6, 6]],
        "grading": {"n": 3, "degrees": degrees},
        "action": {"n": 3, "q": 2, "r": 2,
                   "phi": np.diag([pow(2, d, 7) for d in degrees]).tolist(),
                   "h": np.roll(np.eye(6, dtype=int), 3, axis=0).tolist()},
        "meta": {"expected": {"derived_length": 2, "nilpotency_class": 2}},
    }
    return loads(json.dumps(doc))


SHARED_FACTS = ("check_identity_uniform", "check_grading", "derived_length", "nilpotency_class")


@pytest.mark.parametrize("source", FIXTURE_FILES + ["twisted-heisenberg"])
def test_each_fact_is_computed_at_most_once_per_call(monkeypatch, source):
    import alglab.verify

    loaded = _twisted_heisenberg() if source == "twisted-heisenberg" else load(FIXTURES / source)
    calls = dict.fromkeys(SHARED_FACTS, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in SHARED_FACTS:
        monkeypatch.setattr(alglab.verify, name, counting(name, getattr(alglab.verify, name)))
    for lemma_id, c in (("all", None), ("all", 2), ("selective-nilpotency", 1),
                        ("selective-nilpotency", 2)):
        calls.update(dict.fromkeys(SHARED_FACTS, 0))
        verify(loaded, lemma_id, c)
        assert max(calls.values()) <= 1, (lemma_id, c, calls)
        if lemma_id == "all":
            assert calls == dict.fromkeys(SHARED_FACTS, 1), calls


def test_facts_keeps_one_report_per_argument_tuple():
    from alglab.grading import Grading, check_grading
    from alglab.verify import _Facts

    loaded = load(FIXTURES / "heisenberg_f5.json")
    G = loaded.grading
    flat = Grading(G.n, (1,) * G.dim)
    facts = _Facts(loaded)
    assert facts(check_grading, G).ok
    assert facts(check_grading, flat) == check_grading(loaded.algebra, flat)
    assert not facts(check_grading, flat).ok
    assert facts(check_grading, G).ok


def oracle_frobenius_check(loaded):
    """The frobenius check as it stood when it recomputed the action: n
    eigenspaces by eigen_grading, then their images under h.  The check now
    reads both off what frobenius_data proved at load."""
    from alglab import InputError
    from alglab.errors import check_work
    from alglab.frobenius import _component_steps, eigen_grading
    from alglab.verify import CheckResult

    name = "frobenius"
    A, fd = loaded.algebra, loaded.action
    if fd is None:
        return CheckResult(name, Status.SKIPPED, "no action block")
    try:
        check_work(2 * _component_steps(fd.triple.n, A.dim),
                   f"the frobenius check over {fd.triple.n:,} eigenvalues")
    except InputError as exc:
        return CheckResult(name, Status.SKIPPED, str(exc))
    try:
        egr = eigen_grading(A, fd.phi, fd.triple.n)
    except AlgLabError as exc:
        return CheckResult(name, Status.VIOLATION, f"eigenspace decomposition failed: {exc}")
    failures = untwisted_components(egr.components, fd.h, fd.triple.r)
    if failures:
        return CheckResult(name, Status.VIOLATION,
                           f"h does not map components {failures} to their twisted targets")
    zero_rank = egr.components[0].rank
    return CheckResult(
        name, Status.PASS,
        f"eigen-grading with omega = {egr.omega}; fixed space rank {zero_rank}; "
        f"h permutes components by i -> {fd.triple.r}*i mod {fd.triple.n}",
        {"omega": egr.omega, "fixed_rank": zero_rank},
    )


def _quads(T):
    return [[int(i) + 1, int(j) + 1, int(k) + 1, int(T[i, j, k])] for i, j, k in np.argwhere(T)]


def _twisted_doc(rng, p, n, q, r, base_degrees):
    """q copies of a random table graded by base_degrees mod n, copy s graded by
    r^s * degree; phi acts by omega^degree and h shifts copy s onto copy s + 1,
    so h^-1 phi h = phi^r."""
    from alglab.modular import element_of_order

    db = len(base_degrees)
    base = np.zeros((db, db, db), dtype=np.int64)
    for i, j, k in np.ndindex(db, db, db):
        if base_degrees[k] == (base_degrees[i] + base_degrees[j]) % n:
            base[i, j, k] = rng.randrange(p)
    dim = q * db
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    for s in range(q):
        T[s * db:(s + 1) * db, s * db:(s + 1) * db, s * db:(s + 1) * db] = base
    degrees = [pow(r, s, n) * d % n for s in range(q) for d in base_degrees]
    omega = element_of_order(p, n)
    h = np.roll(np.eye(dim, dtype=np.int64), db, axis=0)
    return {"p": p, "dim": dim, "alpha": 1, "beta": 1, "table": _quads(T),
            "grading": {"n": n, "degrees": degrees},
            "action": {"n": n, "q": q, "r": r,
                       "phi": np.diag([pow(omega, d, p) for d in degrees]).tolist(),
                       "h": h.tolist()}}


def _rebased(doc, rng):
    """doc in the basis given by the columns of a dense random P, with phi -> P^-1 phi P
    (and h alike) and no grading block: phi is no longer diagonal."""
    from alglab.linalg import mat_inv, matmul, nullspace

    p, d = doc["p"], doc["dim"]
    while True:
        P = np.asarray([[rng.randrange(p) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        if nullspace(P, p).is_zero():
            break
    Q = mat_inv(P, p)
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, c in doc["table"]:
        T[i - 1, j - 1, k - 1] = c
    X = matmul(P.T, T.reshape(d, d * d), p).reshape(d, d, d)  # [a, j, k]
    Y = np.stack([matmul(P.T, X[a], p) for a in range(d)])     # [a, b, k]
    T = matmul(Y.reshape(d * d, d), Q.T, p).reshape(d, d, d)   # [c_a, c_b] in the new basis
    act = dict(doc["action"])
    for key in ("phi", "h"):
        act[key] = matmul(matmul(Q, np.asarray(act[key], dtype=np.int64), p), P, p).tolist()
    out = {k: v for k, v in doc.items() if k != "grading"}
    return dict(out, table=_quads(T), action=act)


FROBENIUS_CASES = {  # p: the valid (n, q, r) with n | p - 1 to twist over
    7: ((3, 2, 2), (6, 1, 1), (2, 1, 1)),
    13: ((3, 2, 2), (4, 1, 1), (12, 1, 1)),
    31: ((5, 2, 4), (5, 4, 2), (15, 2, 14), (3, 2, 2)),
    2147483647: ((7, 3, 2), (3, 2, 2), (11, 5, 3)),
}


@pytest.mark.parametrize("p", FROBENIUS_CASES)
def test_frobenius_check_matches_the_eigenspace_oracle(p):
    rng = random.Random(p)
    docs = [_rebased(json.loads((FIXTURES / "abelian2_f7_action.json").read_text()), rng)]
    for n, q, r in FROBENIUS_CASES[p]:
        for db in (1, 2, 3):
            # degree 1 gives phi order exactly n
            doc = _twisted_doc(rng, p, n, q, r, [1] + [rng.randrange(n) for _ in range(db - 1)])
            docs += [doc, _rebased(doc, rng)]
    for doc in docs:
        loaded = loads(json.dumps(doc))
        assert verify(loaded, "frobenius").results == (oracle_frobenius_check(loaded),), doc
    ranks = {verify(loads(json.dumps(doc)), "frobenius").results[0].details["fixed_rank"]
             for doc in docs}
    assert len(ranks) > 1  # some cases have a degree-0 component


@pytest.mark.parametrize("source", FIXTURE_FILES + ["twisted-heisenberg"])
def test_frobenius_check_matches_the_oracle_on_the_fixtures(source):
    loaded = _twisted_heisenberg() if source == "twisted-heisenberg" else load(FIXTURES / source)
    assert verify(loaded, "frobenius").results == (oracle_frobenius_check(loaded),)
